"""The public surface of the package: every public module-level function and
class of `irsma` is referenced somewhere else in `irsma`, so nothing public
exists only for the tests, and every name a module imports is used in it."""

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


def _modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(irsma.__file__).resolve().parent.glob("*.py"))}


def test_every_public_name_has_a_caller_in_the_package():
    modules = _modules()
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


def test_every_import_is_used():
    unused = []
    for module, tree in _modules().items():
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        # a name is used when it is loaded, or re-exported through `__all__`
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used |= {c.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                 for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        unused += sorted(f"{module}.{name}" for name in imported - used)
    assert not unused, f"imported but unused in src/irsma: {unused}"
