"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete. Every criterion is deterministic under the seeds fixed here.
"""

import itertools
import sys

import numpy as np
import pytest

from irsma import analysis, channel, harness, mu_opt, su_opt
from irsma.config import Scenario
from irsma.rng import substream


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert passed, line


@pytest.fixture(scope="module")
def default_scenario():
    return Scenario(master_seed=0)


@pytest.fixture(scope="module")
def mu_sweep():
    """Multi-user line-of-sight sweep over the BS-IRS distance, 50 seeds."""
    spec = harness.SweepSpec(parameter="bs_irs_distance", values=(1.0, 6.0),
                             realizations=50, seed=1001)
    return harness.run_sweep(spec, Scenario(master_seed=1001))


def test_criterion_01_rayleigh_distance(default_scenario):
    s = default_scenario
    d = channel.rayleigh_distance(s.geometry(), s.region_length, s.wavelength)
    _report(1, "near/far boundary distance", abs(d - 50.95) <= 0.05,
            f"value {d:.4f} m, expected 50.95 +/- 0.05")


def test_criterion_02_single_ma_equivalence():
    scen = Scenario(master_seed=2, irs_num_y=25, irs_num_z=25, num_mas=1,
                    transmit_power=10 ** (30 / 10) * 1e-3)  # transmit SNR 110 dB
    rep = analysis.verify_single_ma_equivalence(scen, distances=(1, 2, 3, 4, 5, 6),
                                                num_seeds=50, tol=1e-6)
    worst = max(c.value for c in rep.checks)
    _report(2, "single movable antenna equals fixed", rep.passed,
            f"max relative gap {worst:.3g} <= 1e-6, 6 distances x 50 seeds")


def test_criterion_03_far_field_no_gain(default_scenario):
    rep = analysis.verify_far_field_no_gain(default_scenario, num_apvs=100,
                                            tol=1e-9)
    worst = max(c.value for c in rep.checks)
    _report(3, "far-field position independence", rep.passed,
            f"worst residual {worst:.3g} over matched-gain and precoder-family checks")


def test_criterion_04_graph_placement_optimality():
    rng = np.random.default_rng(4)
    checked = 0
    exact = True
    while checked < 200:
        num_points = int(rng.integers(4, 26))
        num_select = int(rng.integers(1, 5))
        min_gap = int(rng.integers(1, 4))
        if (num_select - 1) * min_gap + 1 > num_points:
            continue
        w = rng.uniform(0, 10, num_points)
        got = sum(w[i] for i in
                  su_opt.graph_position_select(w, num_select, min_gap))
        best = max(
            sum(w[i] for i in c)
            for c in itertools.combinations(range(num_points), num_select)
            if all(b - a >= min_gap for a, b in zip(c, c[1:])))
        exact = exact and got == best
        checked += 1
    _report(4, "placement program matches enumeration", exact,
            f"{checked} random instances, exact objective equality")


def test_criterion_05_wmmse_correctness():
    rng = np.random.default_rng(5)
    ok = True
    worst_gap = 0.0
    for _ in range(20):  # K=1 closed-form oracle
        h = rng.standard_normal((1, 4)) + 1j * rng.standard_normal((1, 4))
        p, s2 = 10.0, 1.0
        w0 = (h.conj().T / np.linalg.norm(h)) * np.sqrt(p / 4)
        w, trace = mu_opt.wmmse(h, w0, p, s2)
        target = np.log2(1 + p * np.linalg.norm(h) ** 2 / s2)
        worst_gap = max(worst_gap, abs(trace[-1] - target) / target)
        ok = ok and worst_gap <= 1e-6
        ok = ok and np.sum(np.abs(w) ** 2) <= p * (1 + 1e-6)
    monotone = True
    for _ in range(100):  # monotonicity on random instances
        k = int(rng.integers(1, 4))
        n = int(rng.integers(k, 5))
        h = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        p, s2 = float(rng.uniform(1, 20)), float(rng.uniform(0.1, 2))
        w0 = h.conj().T / np.linalg.norm(h, axis=1) * np.sqrt(p / k)
        _, trace = mu_opt.wmmse(h, w0, p, s2)
        monotone = monotone and bool(np.all(np.diff(trace) >= -1e-10))
    _report(5, "precoder solver correctness", ok and monotone,
            f"single-user rate gap {worst_gap:.3g} <= 1e-6, power feasible, "
            f"monotone on 100 instances")


def test_criterion_06_manifold_machinery():
    rng = np.random.default_rng(6)
    s2 = 0.5
    eps = 1e-6
    worst_fd = worst_tan = worst_mod = 0.0
    descent = True
    for _ in range(20):
        m = 20
        h_iu = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
        h_bi = rng.standard_normal((m, 4)) + 1j * rng.standard_normal((m, 4))
        w = (rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3)))
        r = mu_opt.interaction_vectors(h_iu, h_bi, w)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        grad = mu_opt.euclidean_grad_f2(phi, r, s2)
        for _ in range(20):
            d = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            d /= np.linalg.norm(d)
            fd = (mu_opt.neg_sum_rate(phi + eps * d, r, s2)
                  - mu_opt.neg_sum_rate(phi - eps * d, r, s2)) / (2 * eps)
            an = float(np.real(np.vdot(d, grad)))
            worst_fd = max(worst_fd, abs(fd - an) / max(abs(fd), 1e-12))
        tangent = mu_opt.riemannian_project(grad, phi)
        worst_tan = max(worst_tan,
                        float(np.max(np.abs(np.real(tangent * np.conj(phi))))))
        retr = mu_opt._retract_step(phi, 0.1, tangent)
        worst_mod = max(worst_mod, float(np.max(np.abs(np.abs(retr) - 1.0))))
        _, trace = mu_opt.manifold_cg(h_iu, h_bi, w, phi, s2, max_iter=60)
        descent = descent and bool(np.all(np.diff(trace.objective) <= 1e-12))
    passed = (worst_fd <= 1e-5 and worst_tan <= 1e-10 and worst_mod <= 1e-12
              and descent)
    _report(6, "manifold gradient/transport/retraction", passed,
            f"finite-diff err {worst_fd:.3g}, tangency {worst_tan:.3g}, "
            f"retraction {worst_mod:.3g}, descent on accepted steps")


def test_criterion_07_alternating_loop_convergence(default_scenario):
    monotone = True
    max_outer = 0
    for seed in range(5):
        s = default_scenario.replace(master_seed=seed)
        rng = substream(seed, "accept7")
        real = harness.draw_realization(s, rng)
        context = harness.cell_context(s, real)
        grid, columns = context.fine, context.fine_columns
        idx0 = su_opt.fpa_indices(grid, s.num_mas)
        phi0 = su_opt.random_reflection(rng, real.bs_irs.geometry.num_elements)
        mu_sol = mu_opt.ao_multi_user(real.h_iu, columns, grid, phi0, idx0,
                                      s.transmit_power, s.noise_power,
                                      min_spacing=s.min_spacing)
        su_sol = su_opt.ao_single_user(real.h_iu[0], columns, grid, phi0,
                                       idx0, s.transmit_power, s.noise_power)
        monotone = monotone and bool(np.all(np.diff(mu_sol.trace) >= -1e-9))
        monotone = monotone and bool(np.all(np.diff(su_sol.trace) >= -1e-9))
        max_outer = max(max_outer, mu_sol.iterations)
    _report(7, "alternating loops monotone and fast", monotone and max_outer <= 10,
            f"traces non-decreasing, at most {max_outer} outer iterations (limit 10)")


def test_criterion_08_fluctuation_monotonicity(default_scenario):
    rep = analysis.verify_fluctuation_monotonicity(
        default_scenario, sizes=(15, 20, 25), distances=(1.0, 3.0, 6.0))
    _report(8, "gain-spread monotone in size and distance", rep.passed,
            "strictly increasing over 15/20/25 per axis, decreasing over 1/3/6 m")


def test_criterion_09a_proposed_dominates_per_instance(mu_sweep):
    by = {}
    for r in mu_sweep.records:
        by.setdefault((r.param, r.realization), {})[r.scheme] = r.rate
    bad = sum(1 for c in by.values()
              if c[harness.PROPOSED] < c[harness.FPA] - 1e-9
              or c[harness.MA_RPS] < c[harness.FPA_RPS] - 1e-9)
    _report(9, "(a) movable never loses to fixed per instance", bad == 0,
            f"{bad} violations over {len(by)} cells under shared initialization")


def test_criterion_09b_gain_larger_at_short_distance(mu_sweep):
    summ = harness.summarize(mu_sweep)
    gain = {v: summ[(harness.PROPOSED, v)][0] / summ[(harness.FPA, v)][0] - 1
            for v in (1.0, 6.0)}
    _report(9, "(b) movable-antenna gain shrinks with distance",
            gain[1.0] > gain[6.0],
            f"mean gain {gain[1.0]:.2%} at 1 m vs {gain[6.0]:.2%} at 6 m")


def test_criterion_09c_random_phases_amplify_gain(mu_sweep):
    summ = harness.summarize(mu_sweep)
    opt = np.mean([summ[(harness.PROPOSED, v)][0] / summ[(harness.FPA, v)][0] - 1
                   for v in (1.0, 6.0)])
    rnd = np.mean([summ[(harness.MA_RPS, v)][0] / summ[(harness.FPA_RPS, v)][0] - 1
                   for v in (1.0, 6.0)])
    _report(9, "(c) relative gain larger under random phases", rnd > opt,
            f"random-phase gain {rnd:.2%} vs optimized-phase gain {opt:.2%}")


def test_criterion_09d_random_phases_widen_fluctuation():
    scen = Scenario(master_seed=9, num_users=1, num_paths=8,
                    user_distance_range=(30.0, 30.0))
    wins = 0
    total = 50
    grid = su_opt.SamplingGrid.from_region(scen.region(), scen.sample_spacing,
                                           scen.min_spacing)
    idx = su_opt.fpa_indices(grid, scen.num_mas)
    for seed in range(total):
        rng = substream(9, "accept9d", seed)
        real = harness.draw_realization(scen, rng)
        h_iu = real.h_iu[0]
        phi_rand = su_opt.random_reflection(rng, real.bs_irs.geometry.num_elements)
        phi_opt, _ = su_opt.bcd_irs(h_iu, real.bs_irs.matrix(grid.points[idx]),
                                    phi_rand)
        _, _, (s_rand, s_opt) = analysis.fluctuation_profile(
            h_iu, (phi_rand, phi_opt), real.bs_irs, scen.region(), 60)
        wins += s_rand > s_opt
    _report(9, "(d) random phases widen the gain fluctuation", wins > total / 2,
            f"wider spread on {wins}/{total} seeds")


def test_criterion_10_multipath_persistence():
    scen = Scenario(master_seed=10, num_paths=4)
    spec = harness.SweepSpec(parameter="bs_irs_distance", values=(6.0,),
                             realizations=50, seed=1010,
                             schemes=(harness.FPA, harness.PROPOSED))
    result = harness.run_sweep(spec, scen)
    summ = harness.summarize(result)
    gap = summ[(harness.PROPOSED, 6.0)][0] - summ[(harness.FPA, 6.0)][0]
    _report(10, "movable gain persists under multipath", gap > 0,
            f"mean rate gap {gap:.4f} bits/s/Hz at 6 m with 4 scattered paths")
