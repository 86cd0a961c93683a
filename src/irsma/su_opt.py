"""Single-user SNR maximization: closed forms, element-wise BCD for the surface
phases, optimal grid placement via dynamic programming, and the outer
alternating loop. The BCD sweep is generated once per antenna count N and
works on N unpacked local scalars: on Python 3.11 each comprehension is a
function frame, which a generic loop would make once per element update."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import _distance_matrix, cascaded_row
from .config import IrsGeometry, TransmitRegion
from .errors import (DegenerateChannelError, DegenerateGeometryError,
                     InfeasibleSpacingError, InvalidParameterError)

_TINY = 1e-300
# Relative gain at which a BCD sweep, or an outer iteration of either
# alternating loop (here and in mu_opt), ends its loop; the caps on BCD
# sweeps and on outer iterations
_BCD_TOL = 1e-3
_OUTER_TOL = 1e-3
_BCD_MAX_SWEEPS = 100
_MAX_OUTER = 50


def random_reflection(rng: np.random.Generator, num_elements: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0, 2 * np.pi, num_elements))


def snr(h_iu, phi, h_bi, w, power: float, noise_power: float) -> float:
    """Received SNR (P/sigma^2) |h_iu^H diag(phi) H w|^2 for unit-norm w."""
    row = cascaded_row(h_iu, phi, h_bi)
    w = np.asarray(w)
    if row.shape[0] != w.shape[0]:
        raise InvalidParameterError("beamformer length does not match antenna count")
    return power / noise_power * abs(row @ w) ** 2


def mrt(h_iu, phi, h_bi) -> np.ndarray:
    """Matched unit-norm transmit beamformer for the cascaded row."""
    row = cascaded_row(h_iu, phi, h_bi)
    norm = np.linalg.norm(row)
    if norm == 0:
        raise DegenerateChannelError("cascaded channel is zero; no matched direction")
    return row.conj() / norm


def gain_closed_form(t, geometry: IrsGeometry, h_iu, wavelength: float) -> float | np.ndarray:
    """End-to-end power gain under co-phased reflection: (lam/4pi)^2 (sum |h|/D)^2;
    one gain per row when `h_iu` stacks several (S, M) draws."""
    d = _distance_matrix(geometry.element_positions(), np.reshape(t, (1, 3)))[:, 0]
    if np.any(d <= 0):
        raise DegenerateGeometryError("antenna coincides with a reflecting element")
    sums = np.sum(np.abs(h_iu) / d, axis=-1)
    # each row squared as a scalar (libm pow), which rounds unlike an array's ** 2
    gains = [float((wavelength / (4 * np.pi)) ** 2 * s ** 2) for s in np.atleast_1d(sums)]
    return gains[0] if sums.ndim == 0 else np.array(gains)


def _h_radial(t, geometry: IrsGeometry, h_iu) -> float:
    """Radial-distance surrogate sum |h_m| / sqrt(R^2 + y_m^2 + z_m^2)."""
    t = np.asarray(t, dtype=float)
    r2 = float(t @ t)
    e = geometry.element_positions()
    return float(np.sum(np.abs(h_iu) / np.sqrt(r2 + e[:, 1] ** 2 + e[:, 2] ** 2)))


def optimal_single_ma_position(region: TransmitRegion) -> np.ndarray:
    """Point of the region closest to the surface center (the origin)."""
    s = float(np.clip(-region.axis_array @ region.center_array,
                      -region.length / 2, region.length / 2))
    return region.point(s)


def gain_difference(t1, t2, geometry: IrsGeometry, h_iu, wavelength: float) -> float:
    """Gain spread H^2(t1) - H^2(t2) for R(t1) <= R(t2); (lam/4pi)^2 omitted."""
    r1 = float(np.linalg.norm(t1))
    r2 = float(np.linalg.norm(t2))
    if r1 > r2 + 1e-12:
        raise InvalidParameterError("expected R(t1) <= R(t2)")
    h1 = _h_radial(t1, geometry, h_iu)
    h2 = _h_radial(t2, geometry, h_iu)
    return h1 ** 2 - h2 ** 2


def _index_gap(min_spacing: float, sample_spacing: float) -> int:
    """Smallest index gap on a uniform grid of step `sample_spacing` whose
    distance is at least `min_spacing`."""
    return max(1, math.ceil(min_spacing / sample_spacing - 1e-9))


@dataclass(frozen=True)
class SamplingGrid:
    """Uniform sampling of the transmit segment, with the index gap that
    guarantees the continuous spacing constraint. Antenna positions are
    feasible when their pairwise index differences are at least `min_gap`."""

    points: np.ndarray  # (L, 3), sorted along the axis
    spacing: float
    min_gap: int

    @property
    def num_points(self) -> int:
        return len(self.points)

    @classmethod
    def from_region(cls, region: TransmitRegion, sample_spacing: float,
                    min_spacing: float) -> "SamplingGrid":
        if sample_spacing <= 0 or min_spacing <= 0:
            raise InvalidParameterError("spacings must be positive")
        num = max(1, int(round(region.length / sample_spacing)))
        # a one-point grid has no step: give it the requested one
        delta = region.length / num if num > 1 else sample_spacing
        # cell-center placement keeps symmetric fixed layouts on the grid
        offsets = (np.arange(num) + 0.5 - num / 2) * delta
        return cls(region.point(offsets), delta, _index_gap(min_spacing, delta))


def graph_position_select(weights, num_select: int, min_gap: int) -> list[int]:
    """Pick `num_select` indices maximizing the weight sum with pairwise index
    gaps >= min_gap. Optimal via a fixed-hop dynamic program; lowest-index
    tie-breaks throughout."""
    w = np.asarray(weights, dtype=float)
    num_points = len(w)
    if num_select < 1 or min_gap < 1:
        raise InvalidParameterError("need num_select >= 1 and min_gap >= 1")
    if (num_select - 1) * min_gap + 1 > num_points:
        raise InfeasibleSpacingError(
            f"cannot place {num_select} points with gap {min_gap} on {num_points} samples")

    value = w.copy()
    preds: list[np.ndarray] = []
    for _ in range(1, num_select):
        # prefix maxima of the previous layer and where they are attained,
        # earliest index on ties: a new record only on a strict increase
        pref_val = np.maximum.accumulate(value)
        record = np.zeros(num_points, dtype=bool)
        record[0] = True
        record[1:] = value[1:] > pref_val[:-1]
        pref_idx = np.maximum.accumulate(np.where(record, np.arange(num_points), 0))
        nxt = np.full(num_points, -np.inf)
        pred = np.full(num_points, -1, dtype=int)
        nxt[min_gap:] = w[min_gap:] + pref_val[:-min_gap]
        pred[min_gap:] = pref_idx[:-min_gap]
        value, preds = nxt, preds + [pred]

    last = int(np.argmax(value))
    chosen = [last]
    for pred in reversed(preds):
        last = int(pred[last])
        chosen.append(last)
    return sorted(chosen)


# An element keeps its phase when |inner| <= _FLAT_INNER * ||g_m||^2. The
# objective then does not depend on that phase beyond rounding (a single
# element, or every other row zero), and the rank-N form of `inner` cannot
# tell such a value from zero.
_FLAT_INNER = 1e-12


# One BCD sweep for rows of length N, with `total`, each row and its conjugate
# unpacked into locals t0.., r.., c... The leading `0 +` starts the inner
# product as `sum()` does, which turns a -0.0 part into +0.0.
_SWEEP_SOURCE = """
def sweep(total, phases, elements, value, append):
    [{t}] = total
    for m, [{r}], [{c}], norm, flat in elements:
        p = phases[m]
        inner = (0{dot}) - p * norm
        mag = abs(inner)
        if mag > flat:
            q = inner / mag
            s = q - p
{update}
            phases[m] = q
            value += 2 * (mag - (p.conjugate() * inner).real) + (1 - abs(p) ** 2) * norm
        append(value)
    return [{t}], value
"""


@functools.cache
def _bcd_sweep(n: int):
    """The sweep kernel for rows of length `n`, compiled once per `n`: it
    updates `phases` in place, appends the objective after each element and
    returns the new `total` and objective."""
    names = {v: ", ".join(f"{v}{i}" for i in range(n)) for v in "trc"}
    source = _SWEEP_SOURCE.format(
        dot="".join(f" + t{i} * c{i}" for i in range(n)),
        update="\n".join(f"            t{i} = t{i} + s * r{i}" for i in range(n)), **names)
    namespace: dict = {}
    exec(compile(source, f"<bcd sweep, N={n}>", "exec"), namespace)
    return namespace["sweep"]


def bcd_irs(h_iu, h_bi, phi_init) -> tuple[np.ndarray, list[float]]:
    """Element-wise coordinate ascent on the cascaded-channel power
    f = ||total||^2, total = sum_m phi_m g_m, rows g_m = conj(h_iu[m]) h_bi[m].

    Element m moves to its closed-form optimum q = inner / |inner|, with
    inner = (total - phi_m g_m) . g_m^H. The loop runs on Python complex
    scalars, in the rank-N form inner = total . g_m^H - phi_m ||g_m||^2, and
    updates total += (q - phi_m) g_m. Each sweep runs in a kernel generated
    once per N (`_bcd_sweep`) that spells out these N-term sums over local
    variables: on Python 3.11 a comprehension is a function frame of its own,
    and a generic loop would make one per element update.

    Returns the reflection vector and the objective trace: f(phi_init), then
    one entry per element update (1 + M * sweeps entries). Each entry adds the
    exact increment 2 (|inner| - Re(conj(phi_m) inner)) + (1 - |phi_m|^2) ||g_m||^2,
    which is >= 0 for unit-modulus phases, so the trace never decreases.
    """
    h_iu = np.asarray(h_iu)
    h_bi = np.asarray(h_bi)
    phi = np.asarray(phi_init, dtype=complex)
    if (h_iu.ndim != 1 or h_bi.ndim != 2 or h_bi.shape[0] != len(h_iu)
            or phi.shape != h_iu.shape):
        raise InvalidParameterError(
            f"bcd_irs needs h_bi (M, N) with M = len(h_iu) = len(phi_init); got "
            f"h_iu {h_iu.shape}, h_bi {h_bi.shape}, phi_init {phi.shape}")
    g = h_iu.conj()[:, None] * h_bi  # rows g_m
    norms = np.sum(np.abs(g) ** 2, axis=1).tolist()
    # per element: index, g_m, conj(g_m), ||g_m||^2 and its flat threshold
    elements = [(m, row, row_conj, norm, _FLAT_INNER * norm) for m, (row, row_conj, norm)
                in enumerate(zip(g.tolist(), g.conj().tolist(), norms))]
    total_vec = phi @ g
    value = float(np.linalg.norm(total_vec) ** 2)
    total, phases = total_vec.tolist(), phi.tolist()
    trace = [value]
    sweep = _bcd_sweep(len(total))
    for _ in range(_BCD_MAX_SWEEPS):
        sweep_start = value
        total, value = sweep(total, phases, elements, value, trace.append)
        if value - sweep_start <= _BCD_TOL * max(abs(sweep_start), _TINY):
            break
    return np.array(phases, dtype=complex), trace


def _require_finite(**arrays) -> None:
    """Reject inputs with NaN or infinite entries; an absent one (None) passes."""
    for name, value in arrays.items():
        if value is not None and not np.all(np.isfinite(value)):
            raise InvalidParameterError(f"non-finite entries in {name}")


def _solved(solves: dict, solver, *args):
    """The array that `solver(*args)` returns first (its solution; both alternating
    loops discard the trace), or the one that the cache `solves` holds for the same
    solver and byte-identical arguments. `bcd_irs`, `wmmse` and `manifold_cg` are
    deterministic and stay on the calling thread, so that is the call's own
    result. A stored array, which every later hit shares, is read-only."""
    key = (solver, *((a.dtype, a.shape, a.strides, a.tobytes()) if isinstance(a, np.ndarray)
                     else a for a in args))
    if key not in solves:
        solves[key] = solver(*args)[0]
        solves[key].flags.writeable = False
    return solves[key]


def _checked_columns(grid_columns, grid: SamplingGrid) -> np.ndarray:
    grid_columns = np.asarray(grid_columns)
    if grid_columns.ndim != 2 or grid_columns.shape[1] != grid.num_points:
        raise InvalidParameterError(
            f"grid columns {grid_columns.shape} do not match {grid.num_points} grid points")
    return grid_columns


# OpenBLAS (0.3.31) runs a complex vector-matrix product on more than one
# thread from 4,096 matrix entries, and its threaded kernels round unlike the
# one-thread kernel. Its complex kernels take the columns in groups of 4, so a
# block of a multiple of 4 columns rounds each output as the one-call product
# does; any other width changes the last bits of the block's tail columns.
# numpy sends a one-column product to another BLAS routine, which rounds
# unlike a column of a wider product, so a last block of one column joins the
# block before it.
_BLOCK_ENTRIES = 4095
_COLUMN_GROUP = 4


def _grid_product(x, grid_columns: np.ndarray) -> np.ndarray:
    """x @ grid_columns for x (M,) or (K, M), one column block per BLAS call.

    Each block holds fewer than 4,096 entries while grid_columns has fewer than
    820 rows (the CG gradient's has K * K), so every call stays on the calling
    thread: the result is the one-thread product bit for bit, whatever the BLAS
    thread count, and no idle BLAS thread spins through the Python work after
    it. A real (S, M) x (the verify screen's (50, 625) amplitudes) makes S * M *
    width multiply-adds per block, which OpenBLAS keeps on one thread to ~750,000."""
    m, num_points = grid_columns.shape
    # room for the one extra column a joined last block takes
    width = _COLUMN_GROUP * max(1, (_BLOCK_ENTRIES // m - 1) // _COLUMN_GROUP)
    if num_points <= width + 1:  # one block: the same BLAS call, without the copy
        return x @ grid_columns
    starts = list(range(0, num_points, width))
    if starts[-1] == num_points - 1:
        starts.pop()
    ends = starts[1:] + [num_points]
    return np.concatenate([x @ grid_columns[:, a:b] for a, b in zip(starts, ends)],
                          axis=-1)


@dataclass
class Solution:
    """Outcome of either alternating loop: this module's single-user one, whose
    `w` is the unit-norm matched beamformer (N,) that the power P scales, and
    `mu_opt.ao_multi_user`, whose `w` is the precoder (N, K). `rate` and the
    outer-loop `trace` are in bits/s/Hz; `rate` is what the records hold. For
    one user `trace[-1]` is the loop's own objective, which can differ from
    `rate` in the last bits (up to 1.8e-15)."""

    w: np.ndarray
    phi: np.ndarray
    positions: np.ndarray
    indices: list[int]
    rate: float
    trace: list[float]
    iterations: int

    @property
    def beamformer(self) -> np.ndarray:
        """`w`, for perfbench/tracing.py alone; goes with ROADMAP item 1."""
        return self.w


def ao_single_user(h_iu, grid_columns, grid: SamplingGrid, phi_init,
                   init_indices, power: float, noise_power: float, *,
                   optimize_phi: bool = True, optimize_positions: bool = True,
                   solves: dict) -> Solution:
    """Alternate reflection BCD and optimal grid placement with matched transmit
    beamforming; the loop stops on the SNR, and the rate trace is non-decreasing.
    `grid_columns` (M, L) holds the channel column of every grid point;
    `harness.cell_context` checks it and `h_iu` to be finite."""
    _require_finite(phi_init=phi_init)
    h_iu = np.asarray(h_iu)
    grid_columns = _checked_columns(grid_columns, grid)
    phi = np.asarray(phi_init, dtype=complex).copy()
    indices = list(init_indices)
    scale = power / noise_power

    def objective(phi_cur, idx):
        row = _grid_product(h_iu.conj() * phi_cur, grid_columns[:, idx])
        return scale * float(np.linalg.norm(row) ** 2)

    trace = [objective(phi, indices)]
    for _ in range(_MAX_OUTER):
        if optimize_phi:
            phi = _solved(solves, bcd_irs, h_iu, grid_columns[:, indices], phi)
        gamma1 = objective(phi, indices)
        previous = indices
        if optimize_positions:
            weights = np.abs(_grid_product(h_iu.conj() * phi, grid_columns)) ** 2
            indices = graph_position_select(weights, len(indices), grid.min_gap)
        # the same phases on the same positions give gamma1 bit for bit
        gamma2 = gamma1 if indices == previous else objective(phi, indices)
        trace.append(gamma2)
        if abs(gamma2 - gamma1) <= _OUTER_TOL * max(gamma1, _TINY):
            break

    h_sel = grid_columns[:, indices]
    w = mrt(h_iu, phi, h_sel)
    return Solution(w=w, phi=phi, positions=grid.points[indices], indices=indices,
                    rate=float(np.log2(1 + snr(h_iu, phi, h_sel, w, power, noise_power))),
                    trace=[float(np.log2(1 + g)) for g in trace],
                    iterations=len(trace) - 1)


def fpa_indices(grid: SamplingGrid, num_mas: int) -> list[int]:
    """Grid indices of the fixed layout: `grid.min_gap` apart and as near to
    symmetric about the region center as the grid allows."""
    gap = grid.min_gap
    slack = grid.num_points - 1 - (num_mas - 1) * gap
    if slack < 0:
        raise InfeasibleSpacingError(f"{num_mas} antennas {gap} grid steps apart do not "
                                     f"fit on the {grid.num_points}-point grid")
    # round(slack / 2) lies in [0, slack], so the layout stays on the grid
    start = round(slack / 2)
    return [start + n * gap for n in range(num_mas)]
