"""Spans and counters recorded from outside the irsma package.

`Tracer.installed()` replaces the public functions of the layer modules
(channel, su_opt, mu_opt, analysis, harness) with wrappers that record one
span per call: name, layer, start, end and the enclosing span. A few hot
helpers that are called tens of thousands of times per sweep cell from inside
their own layer are wrapped as counters only, because a span costs about a
microsecond. Inspectors read the values a span returns (solver traces,
solutions) and turn them into counts, exit reasons and invariant checks.
Everything is restored when the context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("channel", "su_opt", "mu_opt", "analysis", "harness")

# Hot same-layer helpers: counted under the enclosing span, never timed.
COUNTED = {
    "mu_opt": ("sum_rate", "neg_sum_rate", "euclidean_grad_f2", "_wmmse_precoder"),
}
# Hot same-layer helpers left alone: their time is the caller's self time.
UNWRAPPED = {
    "mu_opt": ("user_rate", "riemannian_project", "vector_transport", "retract"),
}
# Methods traced as spans, named after the layer: (layer, class, method).
METHODS = (("channel", "BsIrsModel", "matrix"),
           ("su_opt", "SamplingGrid", "from_region"))

TRACE_RTOL = 1e-9  # non-decreasing outer traces, as in the repository's tests
POWER_RTOL = 1e-6
MODULUS_TOL = 1e-9
SPACING_TOL = 1e-12


@dataclass
class Span:
    name: str
    layer: str
    start: int  # perf_counter_ns
    end: int = 0
    parent: int = -1  # index of the enclosing span; -1 for a root
    root: int = -1  # index of the root span: one unit of work
    counts: dict = field(default_factory=dict)
    tag: str = ""

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * 1e-9


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its direct children cover, in s."""
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [(s.end - s.start - c) * 1e-9 for s, c in zip(spans, child)]


def cg_exit_reason(trace, grad_tol: float, max_iter: int) -> str:
    """Why `manifold_cg` returned, read from its `ManifoldTrace`.

    The solver stops when the gradient norm reaches `grad_tol` ("tol"), after
    `max_iter` accepted steps ("max_iter"), or when the Armijo search finds
    no acceptable step ("line_search"); each accepted step appends one
    objective value after the initial one.
    """
    if trace.grad_norm and trace.grad_norm[-1] <= grad_tol:
        return "tol"
    if len(trace.objective) - 1 >= max_iter:
        return "max_iter"
    return "line_search"


def _non_decreasing(trace) -> bool:
    t = np.asarray(trace, dtype=float)
    return bool(np.all(np.diff(t) >= -TRACE_RTOL * np.maximum(1.0, np.abs(t[:-1]))))


def _unit_modulus(phi) -> bool:
    return bool(np.all(np.abs(np.abs(phi) - 1.0) <= MODULUS_TOL))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.violations: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent].root if parent >= 0 else idx
        self.spans.append(Span(name, layer, time.perf_counter_ns(), parent=parent,
                               root=root))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        idx = self.open(name, layer)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def count(self, name: str, n: int = 1) -> None:
        if self._stack:
            counts = self.spans[self._stack[-1]].counts
            counts[name] = counts.get(name, 0) + n

    # -- wrappers ----------------------------------------------------------
    def _span_wrapper(self, func, name: str, layer: str):
        inspector = _INSPECTORS.get(name)
        signature = inspect.signature(func) if inspector else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self.open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(idx)
            if inspector is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                inspector(self, self.spans[idx], bound.arguments, result)
            return result
        return wrapper

    def _count_wrapper(self, func, name: str):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self.count(name)
            return func(*args, **kwargs)
        return wrapper

    def _patch_everywhere(self, original, replacement) -> None:
        """Rebind every irsma module attribute that refers to `original`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "irsma" or mod_name.startswith("irsma.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        modules = {layer: importlib.import_module(f"irsma.{layer}") for layer in LAYERS}
        try:
            for layer, module in modules.items():
                counted = COUNTED.get(layer, ())
                skipped = UNWRAPPED.get(layer, ())
                for attr, obj in list(vars(module).items()):
                    if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                        continue
                    name = f"{layer}.{attr}"
                    if attr in counted:
                        self._patch_everywhere(obj, self._count_wrapper(obj, name))
                    elif not attr.startswith("_") and attr not in skipped:
                        self._patch_everywhere(obj, self._span_wrapper(obj, name, layer))
            for layer, cls_name, method in METHODS:
                cls = getattr(modules[layer], cls_name)
                raw = cls.__dict__[method]
                name = f"{layer}.{method}"
                if isinstance(raw, classmethod):
                    new = classmethod(self._span_wrapper(raw.__func__, name, layer))
                else:
                    new = self._span_wrapper(raw, name, layer)
                self._patches.append((cls, method, raw))
                setattr(cls, method, new)
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()


# -- inspectors: (tracer, span, bound arguments, return value) ---------------

def _inspect_manifold_cg(tracer, span, args, result):
    _, trace = result
    steps = len(trace.objective) - 1
    span.counts["iters"] = steps
    span.counts["exit." + cg_exit_reason(trace, args["grad_tol"], args["max_iter"])] = 1
    # one objective evaluation at the start, then one per line-search trial
    span.counts["backtracks"] = span.counts.get("mu_opt.neg_sum_rate", 0) - 1 - steps


def _inspect_wmmse(tracer, span, args, result):
    span.counts["iters"] = len(result[1]) - 1


def _inspect_bcd_irs(tracer, span, args, result):
    num_elements = len(np.asarray(args["phi_init"]))
    span.counts["sweeps"] = (len(result[1]) - 1) // max(num_elements, 1)


def _inspect_matrix(tracer, span, args, result):
    span.counts["columns"] = int(np.atleast_2d(np.asarray(args["positions"])).shape[0])


def _inspect_run_scheme(tracer, span, args, result):
    span.tag = str(args["scheme"])


def _solution_problems(sol, spacing_ok: bool) -> list[str]:
    problems = []
    if not _unit_modulus(sol.phi):
        problems.append("|phi_m| != 1")
    if not _non_decreasing(sol.trace):
        problems.append("outer trace decreases")
    if not spacing_ok:
        problems.append("antenna spacing violated")
    return problems


def _inspect_ao_multi_user(tracer, span, args, sol):
    span.counts["outer_iters"] = int(sol.iterations)
    pos = np.asarray(sol.positions, dtype=float)
    dists = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    off_diag = dists[~np.eye(len(pos), dtype=bool)]
    spacing_ok = bool(np.all(off_diag >= args["min_spacing"] - SPACING_TOL))
    problems = _solution_problems(sol, spacing_ok)
    power = float(np.sum(np.abs(sol.w) ** 2))
    if power > args["power"] * (1 + POWER_RTOL):
        problems.append(f"|W|_F^2 = {power:.6g} > P = {args['power']:.6g}")
    for p in problems:
        tracer.violations.append(f"ao_multi_user: {p}")


def _inspect_ao_single_user(tracer, span, args, sol):
    span.counts["outer_iters"] = int(sol.iterations)
    gaps = np.diff(np.sort(np.asarray(sol.indices)))
    spacing_ok = bool(np.all(gaps >= args["grid"].min_gap))
    problems = _solution_problems(sol, spacing_ok)
    # the single-user beamformer is unit-norm and the power P scales it
    norm2 = float(np.sum(np.abs(sol.beamformer) ** 2))
    if norm2 > 1 + POWER_RTOL:
        problems.append(f"|w|^2 = {norm2:.6g} > 1")
    for p in problems:
        tracer.violations.append(f"ao_single_user: {p}")


_INSPECTORS = {
    "mu_opt.manifold_cg": _inspect_manifold_cg,
    "mu_opt.wmmse": _inspect_wmmse,
    "mu_opt.ao_multi_user": _inspect_ao_multi_user,
    "su_opt.bcd_irs": _inspect_bcd_irs,
    "su_opt.ao_single_user": _inspect_ao_single_user,
    "channel.matrix": _inspect_matrix,
    "harness.run_scheme": _inspect_run_scheme,
}
