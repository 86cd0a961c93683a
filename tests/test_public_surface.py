"""The public surface of the package: every public module-level function and
class of `irsma` is referenced somewhere else in `irsma`, so nothing public
exists only for the tests, and every name a module imports is used in it.
Every solve goes through `harness.run_scheme`, and every option (a defaulted
parameter) is passed by some call in the package."""

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


# Defaulted parameters that no call in the package passes: perfbench's tracer
# binds the CG's two stopping options to tell its exit reasons apart, and
# `main` reads the command line unless a caller hands it one.
UNPASSED = {"mu_opt.manifold_cg.grad_tol", "mu_opt.manifold_cg.max_iter", "cli.main.argv"}


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def _scoped(node: ast.AST, scope: str = ""):
    """(qualified name of the innermost enclosing def or class, node) for every
    node under `node`; a def or class itself is listed in its own scope."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from _scoped(child, inner)
        else:
            yield scope, child
            yield from _scoped(child, scope)


def test_only_run_scheme_enters_the_alternating_loops():
    callers = {f"{module}.{scope or '<module>'}" for module, tree in _modules().items()
               for scope, node in _scoped(tree) if isinstance(node, ast.Call)
               and _callee(node) in ("ao_single_user", "ao_multi_user")}
    assert callers == {"harness.run_scheme"}


def test_every_defaulted_parameter_is_passed_in_the_package():
    modules = _modules()
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unpassed = set()
    for module, tree in modules.items():
        # a call `obj.method(...)` does not spell out self or cls
        methods = {f for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for f in cls.body if isinstance(f, ast.FunctionDef)}
        for scope, func in _scoped(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            args = func.args
            positional = args.posonlyargs + args.args
            bound = int(func in methods)
            defaulted = {a.arg: i - bound for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)}
            defaulted |= {a.arg: None for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None}
            for name, index in defaulted.items():
                if not any(_callee(c) == func.name and (
                        any(k.arg in (name, None) for k in c.keywords)
                        or index is not None and len(c.args) > index) for c in calls):
                    unpassed.add(f"{module}.{scope}.{name}")
    assert unpassed - UNPASSED == set(), (
        f"defaulted parameters that no call in src/irsma passes: "
        f"{sorted(unpassed - UNPASSED)}")
    # an exception that gains a caller, or is deleted, leaves the list
    assert UNPASSED <= unpassed
