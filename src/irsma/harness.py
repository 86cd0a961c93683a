"""Benchmark schemes, Monte-Carlo sweeps and CSV persistence.

Within one (parameter value, realization) cell every scheme consumes the same
channel realization, and the channel columns of the sampling grid are built
once per cell (`CellContext`). Their line-of-sight part depends only on the
swept value, so a sweep builds it once per value, and every realization at
that value reuses it. Randomized initial points come from named substreams,
so every cell is a pure function of the sweep seed and its indices.
"""

from __future__ import annotations

import csv
import dataclasses
import logging
from dataclasses import dataclass, field

import numpy as np

from . import channel, mu_opt, su_opt
from .config import Scenario
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


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple
    schemes: tuple = ALL_SCHEMES
    realizations: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.parameter not in SWEEPABLE:
            raise InvalidParameterError(f"unknown sweep parameter {self.parameter!r}")
        if not self.values or not self.schemes:
            raise InvalidParameterError("sweep needs non-empty values and schemes")
        unknown = set(self.schemes) - set(ALL_SCHEMES)
        if unknown:
            raise InvalidParameterError(f"unknown schemes: {sorted(unknown)}")
        if self.realizations < 1:
            raise InvalidParameterError("realizations must be >= 1")
        if self.seed < 0:
            raise InvalidParameterError("sweep seed must be >= 0")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "schemes", tuple(self.schemes))


def sweep_spec_from_dict(d: dict) -> SweepSpec:
    known = {f.name for f in dataclasses.fields(SweepSpec)}
    unknown = set(d) - known
    if unknown:
        raise InvalidParameterError(f"unknown sweep keys: {sorted(unknown)}")
    return SweepSpec(**d)


def apply_parameter(scenario: Scenario, parameter: str, value) -> Scenario:
    if parameter not in SWEEPABLE:
        raise InvalidParameterError(f"unknown sweep parameter {parameter!r}")
    return scenario.replace(**{SWEEPABLE[parameter]: value})


@dataclass(frozen=True)
class Realization:
    """One channel draw shared by every scheme of a sweep cell."""

    h_iu: np.ndarray  # (K, M)
    bs_irs: channel.BsIrsModel


def draw_realization(scenario: Scenario, rng: np.random.Generator,
                     los_cache: dict | None = None) -> Realization:
    """One cell's channels; draws of one scenario may share `los_cache`."""
    geometry = scenario.geometry()
    lam = scenario.wavelength
    h_iu = channel._draw_users([rng] * scenario.num_users, scenario, geometry)
    clusters = None
    if scenario.num_paths > 0:
        region_center = scenario.region().center_array
        clusters = channel.sample_clusters(
            rng, scenario.num_paths, region_center / 2, scenario.scatterer_box_size,
            lam, region_center)
    return Realization(h_iu, channel.BsIrsModel(geometry, lam, clusters, los_cache))


@dataclass
class SchemeRun:
    scheme: str
    rate: float  # bits/s/Hz (single user: log2(1 + SNR))
    iterations: int
    solution: object = None


@dataclass(frozen=True)
class CellContext:
    """Everything the schemes of one cell share: the channel draw, the fine
    grid, the coarse grid that antenna selection (AS) uses, and the fine
    grid's channel columns, (M, L). The coarse points are fine points, so
    their columns are a slice of those. In a sweep, the LoS part of the
    columns is built once per swept value (a LoS-only cell's columns are then
    shared and read-only)."""

    realization: Realization
    fine: su_opt.SamplingGrid
    coarse: su_opt.SamplingGrid
    coarse_on_fine: np.ndarray  # the fine index of each coarse point
    fine_columns: np.ndarray

    def grid(self, scheme: str) -> tuple[su_opt.SamplingGrid, np.ndarray]:
        if scheme == AS:
            return self.coarse, self.fine_columns[:, self.coarse_on_fine]
        return self.fine, self.fine_columns


def _grids(scenario: Scenario) -> tuple[su_opt.SamplingGrid, su_opt.SamplingGrid, np.ndarray]:
    """The fine sampling grid of `scenario`, the coarse one AS uses and the fine
    index of each coarse point. The coarse grid is every k-th fine point, k =
    `fine.min_gap`, centred on the L fine points: both grids hold a fixed
    layout of N antennas exactly when (N - 1) k <= L - 1."""
    fine = su_opt.SamplingGrid.from_region(scenario.region(), scenario.sample_spacing,
                                           scenario.min_spacing)
    k, num = fine.min_gap, fine.num_points
    on_fine = np.arange((num - 1) % k // 2, num, k)
    return fine, su_opt.SamplingGrid(fine.points[on_fine], k * fine.spacing, 1), on_fine


def cell_context(scenario: Scenario, realization: Realization) -> CellContext:
    """Build the grids of `scenario` and the fine grid's channel columns once."""
    fine, coarse, on_fine = _grids(scenario)
    return CellContext(realization, fine, coarse, on_fine,
                       realization.bs_irs.matrix(fine.points))


def _check_layouts_fit(spec: SweepSpec, scenario: Scenario) -> None:
    """Raise unless, at every swept value, the scenario builds and the fixed
    layout of `num_mas` antennas fits on the fine grid, and so on the coarse
    one. Private, so that tracers wrapping every public harness function leave
    it alone."""
    for value in spec.values:
        try:
            scen = apply_parameter(scenario, spec.parameter, value)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{exc} at {spec.parameter}={value}") from exc
        grid = _grids(scen)[0]
        try:
            su_opt.fpa_indices(grid, scen.num_mas)
        except InfeasibleSpacingError as exc:
            raise InfeasibleSpacingError(
                f"{scen.num_mas} antennas {grid.min_gap} grid steps apart do not "
                f"fit on the {grid.num_points}-point fine grid at "
                f"{spec.parameter}={value}") from exc


def run_scheme(scheme: str, scenario: Scenario, context: CellContext, *,
               rng: np.random.Generator, rps_phi: np.ndarray | None = None,
               warm: SchemeRun | None = None) -> SchemeRun:
    """Run one benchmark scheme on the channel realization of `context`.

    `warm` is an optional run of another scheme on the same cell whose
    solution is the starting point (shared initialization makes the nesting
    orderings PROPOSED >= FPA and MA_RPS >= FPA_RPS hold per instance). AS
    takes no warm start.
    """
    if scheme not in ALL_SCHEMES:
        raise InvalidParameterError(f"unknown scheme {scheme!r}")
    grid, grid_columns = context.grid(scheme)
    realization = context.realization

    if scheme in (MA_RPS, FPA_RPS):
        if rps_phi is None:
            raise InvalidParameterError("random-phase schemes need rps_phi")
        phi0 = np.asarray(rps_phi)
        optimize_phi = False
    else:
        phi0 = (np.asarray(warm.solution.phi) if warm is not None
                else su_opt.random_reflection(rng, realization.bs_irs.geometry.num_elements))
        optimize_phi = True
    if warm is None:
        idx0 = su_opt.fpa_indices(grid, scenario.num_mas)
    elif warm.scheme == AS:  # its indices number the coarse points
        idx0 = context.coarse_on_fine[warm.solution.indices].tolist()
    else:
        idx0 = list(warm.solution.indices)
    optimize_positions = scheme in (PROPOSED, AS, MA_RPS)

    if scenario.num_users == 1:
        sol = su_opt.ao_single_user(
            realization.h_iu[0], grid_columns, grid, phi0, idx0,
            scenario.transmit_power, scenario.noise_power,
            optimize_phi=optimize_phi, optimize_positions=optimize_positions)
        rate = float(np.log2(1 + sol.snr))
    else:
        w0 = getattr(warm.solution, "w", None) if warm is not None else None
        sol = mu_opt.ao_multi_user(
            realization.h_iu, grid_columns, grid, phi0, idx0,
            scenario.transmit_power, scenario.noise_power,
            min_spacing=scenario.min_spacing, w_init=w0,
            optimize_phi=optimize_phi, optimize_positions=optimize_positions)
        rate = sol.sum_rate
    return SchemeRun(scheme=scheme, rate=rate, iterations=sol.iterations, solution=sol)


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
# each scheme starts from the best run of these (the nesting orderings)
_WARM_FROM = {MA_RPS: (FPA_RPS,), PROPOSED: (FPA, AS)}


def run_cell(scenario: Scenario, spec: SweepSpec, value, value_index: int,
             realization_index: int, los_cache: dict | None = None) -> list[Record]:
    scen = apply_parameter(scenario, spec.parameter, value)
    chan_rng = substream(spec.seed, "chan", spec.parameter, value_index, realization_index)
    realization = draw_realization(scen, chan_rng, los_cache)
    context = cell_context(scen, realization)
    rps_phi = su_opt.random_reflection(
        substream(spec.seed, "rps", value_index, realization_index),
        realization.bs_irs.geometry.num_elements)
    runs: dict[str, SchemeRun] = {}
    records = []
    for scheme in _CELL_ORDER:
        if scheme not in spec.schemes:
            continue
        warm = max((runs[s] for s in _WARM_FROM.get(scheme, ()) if s in runs),
                   key=lambda r: r.rate, default=None)
        init_rng = substream(spec.seed, "init", value_index, realization_index, scheme)
        run = run_scheme(scheme, scen, context, rng=init_rng,
                         rps_phi=rps_phi, warm=warm)
        runs[scheme] = run
        records.append(Record(scheme=scheme, param=float(value),
                              realization=realization_index, rate=run.rate,
                              iterations=run.iterations))
    return records


def run_sweep(spec: SweepSpec, scenario: Scenario) -> SweepResult:
    """Run the (value, realization) cells in order; deterministic under the
    sweep seed. A sweep whose scenario cannot be built, or whose antennas
    cannot fit, at some swept value raises before its first cell. Past that,
    a cell that fails with a package error or a linear-algebra error is
    skipped with a logged warning and listed in `SweepResult.failed` instead
    of aborting the sweep; any other exception is a bug and propagates."""
    _check_layouts_fit(spec, scenario)
    result = SweepResult(spec=spec)
    for vi, value in enumerate(spec.values):
        los_cache = {}  # one value's LoS columns, kept for its realizations only
        for r in range(spec.realizations):
            try:
                result.records.extend(run_cell(scenario, spec, value, vi, r, los_cache))
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
