"""The public surface of the package: every public module-level function and
class of `irsma` is referenced somewhere else in `irsma`, so nothing public
exists only for the tests, and every name a module imports is used in it.
Every solve goes through `harness.run_scheme`, and every option (a defaulted
parameter) is passed by some call in the package. The benchmark's tracer
(`perfbench/tracing.py`) reads the solvers from outside the package, so its
contract with them is tested here too."""

import ast
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import irsma
from irsma import harness
from irsma.config import Scenario

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


def test_nothing_reads_the_beamformer_alias():
    # `Solution.beamformer` stays only for perfbench/tracing.py; the package and
    # the tests read `w`
    tests = Path(__file__).resolve().parent
    trees = [*_modules().values(), *(ast.parse(p.read_text()) for p in tests.glob("*.py"))]
    assert not [n for tree in trees for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and n.attr == "beamformer"]


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


def _benchmark_tracing():
    """`perfbench/tracing.py`, imported as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("num_users", [1, 3])
def test_benchmark_tracer_reads_every_solver(num_users):
    """The tracer binds `run_scheme`'s `scheme` and the solvers' parameters, and
    reads their return shapes and the solutions' attributes. A traced sweep
    writes the records of a plain one, breaks no invariant, and counts every
    solver's iterations."""
    tracing = _benchmark_tracing()
    scenario = Scenario(irs_num_y=6, irs_num_z=6, num_users=num_users,
                        num_paths=2 if num_users == 1 else 0)
    spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0,), realizations=1)
    plain = harness.run_sweep(spec, scenario).records
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = harness.run_sweep(spec, scenario).records
    assert traced == plain
    assert tracer.violations == []
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span.name, []).append(span)
    assert sorted(s.tag for s in spans["harness.run_scheme"]) == sorted(harness.ALL_SCHEMES)

    def total(name, count):
        return sum(s.counts.get(count, 0) for s in spans.get(name, []))

    if num_users == 1:
        assert total("su_opt.bcd_irs", "sweeps") > 0
        assert total("su_opt.ao_single_user", "outer_iters") > 0
    else:
        assert total("mu_opt.wmmse", "iters") > 0
        assert total("mu_opt.ao_multi_user", "outer_iters") > 0
        exits = [[k for k in s.counts if k.startswith("exit.")]
                 for s in spans["mu_opt.manifold_cg"]]
        assert exits and all(len(e) == 1 for e in exits)
