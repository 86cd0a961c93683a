"""Numerical verification of the theoretical claims: single-antenna movable/fixed
equivalence (on a bounded coarse-to-fine screen of the region grid), far-field position
independence, and the monotonicity of the gain fluctuation in surface size and distance."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import channel, su_opt
from .config import Scenario, TransmitRegion
from .mu_opt import _user_rates, rzf, rzf_rate_far_field
from .rng import substream

_KNOT_STEP = 32  # grid points per gap of the coarse screen in `_screened_gains`


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: float
    comparison: str = "<="


@dataclass
class Report:
    title: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, value: float, threshold: float, comparison: str = "<="):
        ok = value <= threshold if comparison == "<=" else value >= threshold
        self.checks.append(Check(name, bool(ok), float(value), float(threshold), comparison))

    def to_text(self) -> str:
        lines = [f"== {self.title}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            lines.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: "
                         f"{c.value:.6g} {c.comparison} {c.threshold:.6g}")
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "passed", "value", "comparison", "threshold"])
            for c in self.checks:
                writer.writerow([c.name, int(c.passed), repr(c.value), c.comparison,
                                 repr(c.threshold)])


def verify_single_ma_equivalence(scenario: Scenario, distances=(1, 2, 3, 4, 5, 6),
                                 num_seeds: int = 50, grid_points: int = 1001,
                                 tol: float = 1e-6) -> Report:
    """A single movable antenna never beats a fixed antenna at the point of the
    region closest to the surface, under co-phased reflection."""
    report = Report("single-antenna movable/fixed equivalence")
    for dist in distances:
        worst = _worst_equivalence_gap(scenario, dist, num_seeds, grid_points)
        report.add(f"max relative SNR gap at d={dist} m ({num_seeds} seeds)", worst, tol)
    return report


def _worst_equivalence_gap(scenario: Scenario, dist, num_seeds: int,
                           grid_points: int) -> float:
    """Largest relative gap between the best co-phased gain on a grid of the
    region at distance `dist` and the gain at the closest point, over seeds."""
    geometry = scenario.geometry()
    lam = scenario.wavelength
    region = scenario.replace(bs_distance=float(dist)).region()
    offsets = np.linspace(-region.length / 2, region.length / 2, grid_points)
    rngs = [substream(scenario.master_seed, "equiv", int(dist * 1000), s)
            for s in range(num_seeds)]
    amps = np.abs(channel._draw_users(rngs, scenario, geometry))  # |h_iu| of each seed
    g_fpa = su_opt.gain_closed_form(su_opt.optimal_single_ma_position(region), geometry,
                                    amps, lam)
    worst = 0.0
    for g, gains in zip(g_fpa, _screened_gains(region.point(offsets),
                                               geometry.element_positions(), amps, lam)):
        worst = max(worst, abs(float(np.max(gains)) - g) / g)
    return worst


def _screened_gains(points, elements, amps, wavelength: float) -> list[np.ndarray]:
    """Co-phased gains, one array per row of `amps` (|h| of one draw), exactly as on a
    dense profile but only at the points that pass a screen. The screen sums |h_m| / d_m
    at every `_KNOT_STEP`-th of the `points` (sorted on a line) and the last, then in each
    gap between them where, for some draw, sum_m |h_m| / dmin_m (dmin_m: element m to the
    gap) reaches 1 - 1e-6 of its best knot. Each term is >= 0, so all sums stay within
    (M + 3) u of exact, relative (u = 2^-53; < 1e-11 for M <= 1e4): every point within
    1e-9 of the best is screened, the best passes at 1 - 1e-9, and its gain is exact."""
    def screen(idx):
        recip = channel._distance_matrix(points[idx], elements)
        return su_opt._grid_product(amps, np.divide(1.0, recip, out=recip).T)

    n = len(points)
    idx = np.unique(np.r_[0:n:_KNOT_STEP, n - 1])
    sums = screen(idx)
    if n > 2:  # dmin_m by clamped projection on the line through the points
        unit = (points[-1] - points[0]) / (np.linalg.norm(points[-1] - points[0]) or 1.0)
        along = (elements - points[0]) @ unit
        across = np.sum((elements - points[0] - along[:, None] * unit) ** 2, axis=1)
        at = (points[idx] - points[0]) @ unit
        off = np.maximum(np.maximum(at[:-1, None] - along, along - at[1:, None]), 0.0)
        bounds = su_opt._grid_product(amps, (1.0 / np.sqrt(across + off * off)).T)
        keep = (bounds >= (1 - 1e-6) * sums.max(axis=1, keepdims=True)).any(axis=0)
        inner = np.setdiff1d(np.flatnonzero(np.repeat(keep, np.diff(idx))), idx)
        if inner.size:
            idx, sums = np.concatenate([idx, inner]), np.hstack([sums, screen(inner)])
    passes = sums >= (1 - 1e-9) * sums.max(axis=1, keepdims=True)
    used = np.flatnonzero(passes.any(axis=0))
    used = used[np.argsort(idx[used])]  # in grid order
    d = np.linalg.norm(points[idx[used], None, :] - elements[None, :, :], axis=2)
    return [(wavelength / (4 * np.pi)) ** 2 * np.sum(amp / d[row], axis=1) ** 2
            for amp, row in zip(amps, passes[:, used])]


def verify_far_field_no_gain(scenario: Scenario, num_apvs: int = 100,
                             tol: float = 1e-9) -> Report:
    """Under a rank-1 far-field transmitter-side channel, matched beamforming
    gain and the RZF-family rates are independent of the antenna positions."""
    rng = substream(scenario.master_seed, "farfield")
    region = scenario.region()
    num_mas = scenario.num_mas
    lam = scenario.wavelength
    dep = -region.center_array / np.linalg.norm(region.center_array)
    report = Report("far-field position independence")

    # single-user: |v^H w|^2 = N for matched w, any positions
    worst = 0.0
    for _ in range(num_apvs):
        offsets = np.sort(rng.uniform(-region.length / 2, region.length / 2, num_mas))
        v = channel.plane_wave_response(region.point(offsets), dep, lam)
        w = v / np.linalg.norm(v)
        worst = max(worst, abs(abs(v.conj() @ w) ** 2 - num_mas))
    report.add(f"max | |v^H w|^2 - N | over {num_apvs} random position sets", worst, tol)

    # multi-user: RZF-family rates identical across random position sets
    geometry = scenario.geometry()
    k = scenario.num_users
    arrival = np.array([1.0, 0.0, 0.0])
    h_iu = channel._draw_users([rng] * k, scenario, geometry)
    phi = su_opt.random_reflection(rng, geometry.num_elements)
    beta = lam / (4 * np.pi * scenario.bs_distance) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    powers = np.full(k, scenario.transmit_power / k)
    sigma2 = scenario.noise_power
    u = channel.plane_wave_response(geometry.element_positions(), arrival, lam)
    q = beta * (h_iu.conj() * phi) @ u

    regs = {"MRT": 1e8 * float(np.sum(np.abs(q) ** 2)) * num_mas,
            "ZF": None,  # pseudoinverse limit of the regularizer -> 0
            "MMSE": sigma2, "RZF": sigma2 / 2}

    def pipeline_rates(reg):
        offsets = rng.uniform(-region.length / 2, region.length / 2, num_mas)
        h_bi = channel.far_field_bs_irs(region.point(offsets), geometry, arrival, dep,
                                        beta, lam)
        rows = np.vstack([channel.cascaded_row(h_iu[i], phi, h_bi) for i in range(k)])
        if reg is None:
            dirs = rows.conj().T @ np.linalg.pinv(rows @ rows.conj().T, hermitian=True)
            w = dirs / np.linalg.norm(dirs, axis=0, keepdims=True) * np.sqrt(powers)
        else:
            w = rzf(rows, reg, powers)
        return _user_rates(rows, w, sigma2)

    closed = rzf_rate_far_field(q, powers, num_mas, sigma2)
    for name, reg in regs.items():
        r1, r2 = pipeline_rates(reg), pipeline_rates(reg)
        diff = float(np.max(np.abs(r1 - r2) / np.abs(r1)))
        report.add(f"{name} rate spread across random position sets", diff, tol)
    gap = float(np.max(np.abs(pipeline_rates(regs["MMSE"]) - closed) / closed))
    report.add("pipeline vs closed-form rates (MMSE)", gap, 1e-8)
    return report


def fluctuation_profile(h_iu, phis, bs_irs: channel.BsIrsModel, region: TransmitRegion,
                        resolution: int = 200) -> tuple[np.ndarray, list, list]:
    """Effective channel power gain along the region axis for each fixed
    reflection in `phis`, all on one build of the channel columns; returns
    (offsets, per-reflection gains, per-reflection max-min spreads in dB)."""
    offsets = np.linspace(-region.length / 2, region.length / 2, resolution)
    cols = bs_irs.matrix(region.point(offsets))
    gains = [np.abs(su_opt._grid_product(np.asarray(h_iu).conj() * np.asarray(phi),
                                         cols)) ** 2 for phi in phis]
    spreads = [float(10 * np.log10(np.max(g) / np.min(g))) for g in gains]
    return offsets, gains, spreads


def verify_fluctuation_monotonicity(scenario: Scenario,
                                    sizes=(15, 20, 25),
                                    distances=(1.0, 3.0, 6.0)) -> Report:
    """The gain spread between two fixed positions grows with the surface size
    and shrinks with the link distance (perpendicular-segment setup)."""
    lam = scenario.wavelength
    report = Report("gain-fluctuation monotonicity")

    def spread(num_per_axis, d_bi):
        geometry = scenario.replace(irs_num_y=num_per_axis,
                                    irs_num_z=num_per_axis).geometry()
        region = TransmitRegion((d_bi, 0.0, 0.0), (1.0, 0.0, 0.0), scenario.region_length)
        t1 = region.point(-region.length / 2)
        t2 = region.point(region.length / 2)
        h_iu = np.ones(geometry.num_elements)
        return su_opt.gain_difference(t1, t2, geometry, h_iu, lam)

    base_d = float(distances[1])
    diffs_m = [spread(m, base_d) for m in sizes]
    increasing = min(np.diff(diffs_m)) if len(diffs_m) > 1 else 0.0
    report.add(f"min increment over surface sizes {tuple(sizes)}", increasing, 0.0, ">=")

    base_m = int(sizes[0])
    diffs_d = [spread(base_m, d) for d in distances]
    decreasing = min(-np.diff(diffs_d)) if len(diffs_d) > 1 else 0.0
    report.add(f"min decrement over link distances {tuple(distances)} m", decreasing, 0.0, ">=")
    return report


def verify_all(scenario: Scenario) -> list[Report]:
    """The standard battery: equivalence at both surface sizes, far-field
    invariance, and fluctuation monotonicity."""
    fig2 = scenario.replace(irs_num_y=25, irs_num_z=25, num_mas=1)
    return [
        verify_single_ma_equivalence(fig2),
        verify_single_ma_equivalence(scenario, num_seeds=10),
        verify_far_field_no_gain(scenario),
        verify_fluctuation_monotonicity(scenario),
    ]
