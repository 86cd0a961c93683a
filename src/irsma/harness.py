"""Benchmark schemes, Monte-Carlo sweeps and CSV persistence.

Within one (parameter value, realization) cell every scheme consumes the same channel
draw: `cell_context` draws it, then builds the sampling grids' channel columns, and
checks the draw and the columns for non-finite entries, once per cell. The grids
and the line-of-sight part of the columns depend only on the swept value, so one
builder makes them, once per value in a sweep, on the value's scenario, which the
sweep's load-time check builds once. `run_scheme` returns the
solver's own solution, whose antenna indices number the fine grid for every scheme.
Randomized initial points come from named substreams, so every cell is a pure
function of the sweep seed and its indices.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import channel, mu_opt, su_opt
from .config import Scenario, _from_section
from .errors import InfeasibleSpacingError, InvalidParameterError, IrsmaError
from .rng import substream

PROPOSED = "PROPOSED"
FPA = "FPA"
AS = "AS"
MA_RPS = "MA_RPS"
FPA_RPS = "FPA_RPS"
ALL_SCHEMES = (PROPOSED, FPA, AS, MA_RPS, FPA_RPS)

# sweep parameter -> the Scenario field it sets (Scenario checks and types the value)
SWEEPABLE = {"bs_irs_distance": "bs_distance", "region_length": "region_length",
             "num_paths": "num_paths"}

_log = logging.getLogger(__name__)

Solution = su_opt.SuSolution | mu_opt.MuSolution


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    schemes: tuple = ALL_SCHEMES
    realizations: int = 50
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.parameter, str) or self.parameter not in SWEEPABLE:
            raise InvalidParameterError(f"unknown sweep parameter {self.parameter!r}")
        for name in ("values", "schemes"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and value):
                raise InvalidParameterError(
                    f"sweep {name} must be a non-empty list, got {value!r}")
            object.__setattr__(self, name, tuple(value))
        # YAML 1.1 reads 1e3, without a dot, as a string, and gives 2.0 for 2
        for name, low in (("realizations", 1), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                    and math.isfinite(value) and value == int(value)):  # a bool is a Real
                raise InvalidParameterError(f"sweep {name} must be an integer, got {value!r}")
            if value < low:
                raise InvalidParameterError(f"sweep {name} must be >= {low}")
            object.__setattr__(self, name, int(value))
        unknown = [s for s in self.schemes if s not in ALL_SCHEMES]
        if unknown:
            raise InvalidParameterError(f"unknown schemes: {unknown}")


def sweep_spec_from_dict(d) -> SweepSpec:
    return _from_section(SweepSpec, d, "sweep")


def apply_parameter(scenario: Scenario, parameter: str, value) -> Scenario:
    if parameter not in SWEEPABLE:
        raise InvalidParameterError(f"unknown sweep parameter {parameter!r}")
    return scenario.replace(**{SWEEPABLE[parameter]: value})


def draw_realization(scenario: Scenario,
                     rng: np.random.Generator) -> tuple[np.ndarray, channel.BsIrsModel]:
    """One cell's channels, `(h_iu (K, M), bs_irs)`."""
    geometry = scenario.geometry()
    lam = scenario.wavelength
    h_iu = channel._draw_users([rng] * scenario.num_users, scenario, geometry)
    clusters = None
    if scenario.num_paths > 0:
        region_center = scenario.region().center_array
        clusters = channel.sample_clusters(
            rng, scenario.num_paths, region_center / 2, scenario.scatterer_box_size,
            lam, region_center)
    return h_iu, channel.BsIrsModel(geometry, lam, clusters)


@dataclass(frozen=True)
class CellContext:
    """Everything the schemes of one cell share: the channel draw (`h_iu` and
    `bs_irs`), the fine grid, the coarse grid that antenna selection (AS)
    uses, and the fine grid's channel columns, (M, L). The coarse points are
    fine points, so their columns are a slice of those. A LoS-only cell's
    columns are the read-only LoS columns that the cells of its swept value
    share."""

    h_iu: np.ndarray  # (K, M)
    bs_irs: channel.BsIrsModel
    fine: su_opt.SamplingGrid
    coarse: su_opt.SamplingGrid
    coarse_on_fine: np.ndarray  # the fine index of each coarse point
    fine_columns: np.ndarray

    def grid(self, scheme: str) -> tuple[su_opt.SamplingGrid, np.ndarray]:
        if scheme == AS:
            return self.coarse, self.fine_columns[:, self.coarse_on_fine]
        return self.fine, self.fine_columns


def _shared(scenario: Scenario) -> tuple:
    """What the cells of `scenario` share: `(fine, coarse, coarse_on_fine,
    los)`. The coarse grid, which AS uses, is every k-th fine point, k =
    `fine.min_gap`, centred on the L fine points, so both grids hold a fixed
    layout of N antennas exactly when (N - 1) k <= L - 1. `los` is the fine
    grid's LoS columns (M, L), read-only."""
    fine = su_opt.SamplingGrid.from_region(scenario.region(), scenario.sample_spacing,
                                           scenario.min_spacing)
    k, num = fine.min_gap, fine.num_points
    on_fine = np.arange((num - 1) % k // 2, num, k)
    los = channel.nusw_los_matrix(fine.points, scenario.geometry(), scenario.wavelength)
    los.flags.writeable = False
    return fine, su_opt.SamplingGrid(fine.points[on_fine], k * fine.spacing, 1), on_fine, los


def cell_context(scenario: Scenario, rng: np.random.Generator,
                 shared: tuple | None = None) -> CellContext:
    """Draw one cell's channels from `rng`, then build the fine grid's columns
    on the grids and LoS columns of `shared` (`_shared(scenario)` if not
    given); reject a non-finite draw or column."""
    h_iu, bs_irs = draw_realization(scenario, rng)
    fine, coarse, on_fine, los = shared or _shared(scenario)
    columns = bs_irs.matrix(fine.points, los)
    su_opt._require_finite(h_iu=h_iu, grid_columns=columns)
    return CellContext(h_iu, bs_irs, fine, coarse, on_fine, columns)


def _value_scenarios(spec: SweepSpec, scenario: Scenario):
    """Yield the scenario at each swept value. Raise unless every value differs from
    the others, the scenario builds at it, and the fixed layout of `num_mas`
    antennas fits on its fine grid, and so on the coarse one. Private, so
    that tracers wrapping every public harness function leave it alone."""
    for i, value in enumerate(spec.values):
        try:
            scen = apply_parameter(scenario, spec.parameter, value)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{exc} at {spec.parameter}={value}") from exc
        if float(value) in map(float, spec.values[:i]):  # its records would pool with theirs
            raise InvalidParameterError(
                f"sweep value repeats an earlier one at {spec.parameter}={value}")
        grid = su_opt.SamplingGrid.from_region(scen.region(), scen.sample_spacing,
                                               scen.min_spacing)
        try:
            su_opt.fpa_indices(grid, scen.num_mas)
        except InfeasibleSpacingError as exc:
            raise InfeasibleSpacingError(
                f"{scen.num_mas} antennas {grid.min_gap} grid steps apart do not "
                f"fit on the {grid.num_points}-point fine grid at "
                f"{spec.parameter}={value}") from exc
        yield scen


def run_scheme(scheme: str, scenario: Scenario, context: CellContext, phi: np.ndarray,
               *, warm: Solution | None = None) -> Solution:
    """Run one benchmark scheme from the start reflection `phi` on the channel
    draw of `context`, and return the solver's solution; MA_RPS and FPA_RPS
    keep `phi` unchanged. The solution's `indices` number the fine grid, AS's
    too.

    `warm` is an optional solution of another scheme on the same cell whose
    antenna positions (and, for several users, precoder) are the starting
    point (shared initialization makes the nesting orderings PROPOSED >= FPA
    and MA_RPS >= FPA_RPS hold per instance). AS takes no warm start.
    """
    if scheme not in ALL_SCHEMES:
        raise InvalidParameterError(f"unknown scheme {scheme!r}")
    grid, grid_columns = context.grid(scheme)
    idx0 = su_opt.fpa_indices(grid, scenario.num_mas) if warm is None else warm.indices
    optimize_phi = scheme not in (MA_RPS, FPA_RPS)
    optimize_positions = scheme in (PROPOSED, AS, MA_RPS)

    if scenario.num_users == 1:
        sol = su_opt.ao_single_user(
            context.h_iu[0], grid_columns, grid, phi, idx0,
            scenario.transmit_power, scenario.noise_power,
            optimize_phi=optimize_phi, optimize_positions=optimize_positions)
    else:
        sol = mu_opt.ao_multi_user(
            context.h_iu, grid_columns, grid, phi, idx0, scenario.transmit_power,
            scenario.noise_power, min_spacing=scenario.min_spacing,
            w_init=None if warm is None else warm.w,
            optimize_phi=optimize_phi, optimize_positions=optimize_positions)
    if scheme == AS:  # its solver numbers the coarse points
        sol.indices = context.coarse_on_fine[sol.indices].tolist()
    return sol


@dataclass(frozen=True)
class Record:
    scheme: str
    param: float
    realization: int
    rate: float
    iterations: int


@dataclass
class SweepResult:
    spec: SweepSpec
    records: list[Record] = field(default_factory=list)
    failed: list[tuple[float, int]] = field(default_factory=list)  # (value, realization)

    def to_csv(self, path) -> None:
        """Deterministic per-record CSV."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scheme", "param", "realization", "metric", "value"])
            for r in self.records:
                writer.writerow([r.scheme, repr(float(r.param)), r.realization,
                                 "sum_rate", repr(r.rate)])
                writer.writerow([r.scheme, repr(float(r.param)), r.realization,
                                 "iterations", r.iterations])

    def summary_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scheme", "param", "mean_rate", "halfwidth95", "n"])
            for (scheme, value), (mean, hw, n) in sorted(summarize(self).items()):
                writer.writerow([scheme, repr(float(value)), repr(mean), repr(hw), n])


# run order makes warm starts available to the schemes that consume them
_CELL_ORDER = (FPA_RPS, MA_RPS, FPA, AS, PROPOSED)
# each scheme starts from the best solution of these (the nesting orderings)
_WARM_FROM = {MA_RPS: (FPA_RPS,), PROPOSED: (FPA, AS)}


def run_cell(scenario: Scenario, spec: SweepSpec, value, value_index: int,
             realization_index: int, shared: tuple | None = None) -> list[Record]:
    """Run the schemes of `spec` on one channel draw, each from the phases of its
    warm solution, else the cell's "rps" draw (MA_RPS, FPA_RPS), else its "init" draw.
    `scenario` is the sweep's scenario, at `value` already or not."""
    at_value = getattr(scenario, SWEEPABLE[spec.parameter]) == value
    scen = scenario if at_value else apply_parameter(scenario, spec.parameter, value)
    context = cell_context(scen, substream(spec.seed, "chan", spec.parameter, value_index,
                                           realization_index), shared)
    solved: dict[str, Solution] = {}
    records = []
    for scheme in [s for s in _CELL_ORDER if s in spec.schemes]:
        warm = max((solved[s] for s in _WARM_FROM.get(scheme, ()) if s in solved),
                   key=lambda sol: sol.rate, default=None)
        if warm is not None:
            phi = warm.phi
        else:
            tags = (("rps", value_index, realization_index) if scheme in (MA_RPS, FPA_RPS)
                    else ("init", value_index, realization_index, scheme))
            phi = su_opt.random_reflection(substream(spec.seed, *tags),
                                           context.h_iu.shape[1])
        solved[scheme] = sol = run_scheme(scheme, scen, context, phi, warm=warm)
        records.append(Record(scheme=scheme, param=float(value),
                              realization=realization_index, rate=sol.rate,
                              iterations=sol.iterations))
    return records


def run_sweep(spec: SweepSpec, scenario: Scenario) -> SweepResult:
    """Run the (value, realization) cells in order; deterministic under the
    sweep seed. A sweep whose values repeat, or whose scenario cannot be
    built, or whose antennas cannot fit, at some swept value raises before its
    first cell. Past that, a cell that fails with a package error or a
    linear-algebra error is skipped with a logged warning and listed in
    `SweepResult.failed` instead of aborting the sweep; any other exception is
    a bug and propagates."""
    scenarios = list(_value_scenarios(spec, scenario))  # all checked before the first cell
    result = SweepResult(spec=spec)
    for vi, (value, scen) in enumerate(zip(spec.values, scenarios)):
        shared = None  # one value's grids and LoS columns, kept for its realizations only
        for r in range(spec.realizations):
            try:
                shared = shared or _shared(scen)
                result.records.extend(run_cell(scen, spec, value, vi, r, shared))
            except (IrsmaError, np.linalg.LinAlgError) as exc:
                _log.warning("cell value=%s realization=%s failed: %r", value, r, exc)
                result.failed.append((float(value), r))
    return result


def summarize(result: SweepResult) -> dict:
    """Per-(scheme, value) mean rate and normal-approximation 95% half-width."""
    groups: dict[tuple, list[float]] = {}
    for r in result.records:
        groups.setdefault((r.scheme, r.param), []).append(r.rate)
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals)
        n = len(arr)
        hw = 0.0 if n < 2 else float(1.96 * np.std(arr, ddof=1) / np.sqrt(n))
        out[key] = (float(np.mean(arr)), hw, n)
    return out
