"""Single-user SNR maximization: closed forms, element-wise BCD for the surface
phases, optimal grid placement via dynamic programming, and the outer
alternating loop."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import cascaded_row
from .config import IrsGeometry, TransmitRegion
from .errors import (DegenerateChannelError, DegenerateGeometryError,
                     InfeasibleSpacingError, InvalidParameterError)

_TINY = 1e-300
# Relative gain at which a BCD sweep, or an outer iteration of either
# alternating loop (here and in mu_opt), ends its loop; the outer loops' cap
_BCD_TOL = 1e-3
_OUTER_TOL = 1e-3
_MAX_OUTER = 50


def reflection_from_phases(phases) -> np.ndarray:
    return np.exp(1j * np.asarray(phases, dtype=float))


def random_reflection(rng: np.random.Generator, num_elements: int) -> np.ndarray:
    return reflection_from_phases(rng.uniform(0, 2 * np.pi, num_elements))


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


def optimal_irs_phase_su(h_iu, h_bi) -> np.ndarray:
    """Per-element phases co-phasing both hops (single-antenna transmitter).

    Zero-magnitude entries contribute nothing to the gain; their phase is 0.
    """
    h_iu = np.asarray(h_iu)
    h_bi = np.asarray(h_bi)
    phases = np.where((h_iu == 0) | (h_bi == 0), 0.0, np.angle(h_iu) - np.angle(h_bi))
    return reflection_from_phases(phases)


def gain_closed_form(t, geometry: IrsGeometry, h_iu, wavelength: float) -> float | np.ndarray:
    """End-to-end power gain under co-phased reflection: (lam/4pi)^2 (sum |h|/D)^2;
    one gain per row when `h_iu` stacks several (S, M) draws."""
    d = np.linalg.norm(geometry.element_positions() - np.asarray(t, dtype=float), axis=1)
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


def gain_radial_approx(t, geometry: IrsGeometry, h_iu,
                       wavelength: float) -> tuple[float, tuple[float, float]]:
    """Transverse-offset-free gain approximation and its premise magnitudes.

    Valid when y_t*d/R^2 and z_t*d/R^2 are small; both are returned so the
    caller can check the premise. Exact when y_t = z_t = 0.
    """
    t = np.asarray(t, dtype=float)
    r2 = float(t @ t)
    if r2 == 0:
        raise DegenerateGeometryError("antenna at the surface center")
    premise = (abs(t[1]) * geometry.spacing / r2, abs(t[2]) * geometry.spacing / r2)
    h = _h_radial(t, geometry, h_iu)
    return (wavelength / (4 * np.pi)) ** 2 * h ** 2, premise


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


def bcd_irs(h_iu, h_bi, phi_init, max_sweeps: int = 100) -> tuple[np.ndarray, list[float]]:
    """Element-wise coordinate ascent on the cascaded-channel power
    f = ||total||^2, total = sum_m phi_m g_m, rows g_m = conj(h_iu[m]) h_bi[m].

    Element m moves to its closed-form optimum q = inner / |inner|, with
    inner = (total - phi_m g_m) . g_m^H. The loop runs on Python complex
    scalars, in the rank-N form inner = total . g_m^H - phi_m ||g_m||^2, and
    updates total += (q - phi_m) g_m.

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
    rows, rows_conj = g.tolist(), g.conj().tolist()
    total_vec = phi @ g
    value = float(np.linalg.norm(total_vec) ** 2)
    total, phases = total_vec.tolist(), phi.tolist()
    trace = [value]
    for _ in range(max_sweeps):
        sweep_start = value
        for m in range(len(phases)):
            p = phases[m]
            inner = sum([t * c for t, c in zip(total, rows_conj[m])]) - p * norms[m]
            mag = abs(inner)
            if mag > _FLAT_INNER * norms[m]:
                q = inner / mag
                step = q - p
                total = [t + step * x for t, x in zip(total, rows[m])]
                phases[m] = q
                value += (2 * (mag - (p.conjugate() * inner).real)
                          + (1 - abs(p) ** 2) * norms[m])
            trace.append(value)
        if value - sweep_start <= _BCD_TOL * max(abs(sweep_start), _TINY):
            break
    return np.array(phases, dtype=complex), trace


def _require_finite(**arrays) -> None:
    """Reject solver inputs with NaN or infinite entries."""
    for name, value in arrays.items():
        if not np.all(np.isfinite(value)):
            raise InvalidParameterError(f"non-finite entries in {name}")


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

    Each block holds fewer than 4,096 entries (for M below 820), so every
    call stays on the calling thread: the result is the one-thread product
    bit for bit, whatever the BLAS thread count, and no BLAS thread is woken
    to spin through the Python work that follows. A real (S, M) x, such as the
    verify screen's (50, 625) draw amplitudes, makes each block S * M * width
    multiply-adds, which OpenBLAS keeps on one thread up to about 750,000."""
    m, num_points = grid_columns.shape
    # room for the one extra column a joined last block takes
    width = _COLUMN_GROUP * max(1, (_BLOCK_ENTRIES // m - 1) // _COLUMN_GROUP)
    starts = list(range(0, num_points, width))
    if len(starts) > 1 and starts[-1] == num_points - 1:
        starts.pop()
    ends = starts[1:] + [num_points]
    return np.concatenate([x @ grid_columns[:, a:b] for a, b in zip(starts, ends)],
                          axis=-1)


@dataclass
class SuSolution:
    """Outcome of the single-user alternating loop."""

    phi: np.ndarray
    positions: np.ndarray
    indices: list[int]
    beamformer: np.ndarray
    snr: float
    trace: list[float] = field(default_factory=list)
    iterations: int = 0


def ao_single_user(h_iu, grid_columns, grid: SamplingGrid, phi_init,
                   init_indices, power: float, noise_power: float, *,
                   optimize_phi: bool = True,
                   optimize_positions: bool = True) -> SuSolution:
    """Alternate reflection BCD and optimal grid placement with matched transmit
    beamforming; the SNR trace is non-decreasing. `grid_columns` (M, L) holds
    the channel column of every grid point."""
    _require_finite(h_iu=h_iu, grid_columns=grid_columns, phi_init=phi_init)
    h_iu = np.asarray(h_iu)
    grid_columns = _checked_columns(grid_columns, grid)
    phi = np.asarray(phi_init, dtype=complex).copy()
    indices = list(init_indices)
    num_mas = len(indices)
    scale = power / noise_power

    def objective(phi_cur, idx):
        row = _grid_product(h_iu.conj() * phi_cur, grid_columns[:, idx])
        return scale * float(np.linalg.norm(row) ** 2)

    trace = [objective(phi, indices)]
    iterations = 0
    for _ in range(_MAX_OUTER):
        iterations += 1
        if optimize_phi:
            phi, _ = bcd_irs(h_iu, grid_columns[:, indices], phi)
        gamma1 = objective(phi, indices)
        if optimize_positions:
            weights = np.abs(_grid_product(h_iu.conj() * phi, grid_columns)) ** 2
            indices = graph_position_select(weights, num_mas, grid.min_gap)
        gamma2 = objective(phi, indices)
        trace.append(gamma2)
        if abs(gamma2 - gamma1) <= _OUTER_TOL * max(gamma1, _TINY):
            break

    h_sel = grid_columns[:, indices]
    w = mrt(h_iu, phi, h_sel)
    return SuSolution(phi=phi, positions=grid.points[indices], indices=indices,
                      beamformer=w, snr=snr(h_iu, phi, h_sel, w, power, noise_power),
                      trace=trace, iterations=iterations)


def fpa_indices(grid: SamplingGrid, num_mas: int) -> list[int]:
    """Grid indices of the fixed layout: `grid.min_gap` apart and as near to
    symmetric about the region center as the grid allows."""
    gap = grid.min_gap
    slack = grid.num_points - 1 - (num_mas - 1) * gap
    if slack < 0:
        raise InfeasibleSpacingError("fixed layout does not fit on the grid")
    # round(slack / 2) lies in [0, slack], so the layout stays on the grid
    start = round(slack / 2)
    return [start + n * gap for n in range(num_mas)]
