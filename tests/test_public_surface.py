"""The public surface of the package: every public module-level function and
class of `irsma` is referenced somewhere else in `irsma`, so nothing public
exists only for the tests."""

import ast
from collections import Counter
from pathlib import Path

import irsma

# Public, yet called only from the tests: each entry is a claim of the paper
# that an acceptance criterion checks directly.
EXCEPTIONS = {"channel.rayleigh_distance"}  # criterion 01, the near/far-field boundary


def _references(node: ast.AST) -> Counter:
    """How often each name occurs as a `Name` or an `Attribute` under `node`
    (docstrings and comments are neither)."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_public_name_has_a_caller_in_the_package():
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(Path(irsma.__file__).resolve().parent.glob("*.py"))}
    everywhere = sum(map(_references, modules.values()), Counter())
    uncalled = {f"{module}.{node.name}" for module, tree in modules.items()
                for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and everywhere[node.name] == _references(node)[node.name]}
    assert not uncalled - EXCEPTIONS, (
        f"public names that nothing else in src/irsma references: "
        f"{sorted(uncalled - EXCEPTIONS)}")
    # an exception that gains a caller, or is deleted, leaves the list
    assert EXCEPTIONS <= uncalled
