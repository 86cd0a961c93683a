"""Multi-user machinery: RZF family, WMMSE, manifold CG, position search, AO."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from irsma import channel, harness, mu_opt, su_opt
from irsma.config import Scenario, TransmitRegion, load_config, scenario_from_dict
from irsma.errors import (InvalidParameterError, MultiplierBracketError,
                          SingularMatrixError)
from irsma.rng import substream

from conftest import rician_row

# the CG's trial steps per line search, read before any test patches it
_BACKTRACKS = mu_opt._MAX_BACKTRACKS
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _random_rows(rng, k, n, scale=1.0):
    return scale * (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n)))


def _reference_user_rate(h_rows, w, k, noise_power):
    """log2(1 + SINR) of user k alone, from its own row's product."""
    gains = np.abs(h_rows[k] @ w) ** 2
    interference = float(np.sum(gains) - gains[k])
    return float(np.log2(1 + gains[k] / (interference + noise_power)))


class TestRates:
    def test_zero_precoder_rate(self, rng):
        h = _random_rows(rng, 2, 3)
        w = np.zeros((3, 2), dtype=complex)
        np.testing.assert_array_equal(mu_opt._user_rates(h, w, 1.0), [0.0, 0.0])
        assert mu_opt.sum_rate(h, w, 1.0) == 0.0

    def test_single_user_mrt_closed_form(self, rng):
        h = _random_rows(rng, 1, 4)
        p, s2 = 3.0, 0.5
        w = (h.conj().T / np.linalg.norm(h)) * np.sqrt(p)
        expected = np.log2(1 + p * np.linalg.norm(h) ** 2 / s2)
        assert mu_opt._user_rates(h, w, s2)[0] == pytest.approx(expected, rel=1e-12)
        assert mu_opt.sum_rate(h, w, s2) == pytest.approx(expected, rel=1e-12)

    def test_sinr_homogeneity(self, rng):
        h = _random_rows(rng, 3, 4)
        w = _random_rows(rng, 3, 4).conj().T
        s2 = 0.7
        c = 2.5
        r1 = mu_opt.sum_rate(h, w, s2)
        r2 = mu_opt.sum_rate(h, np.sqrt(c) * w, c * s2)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_sum_equals_parts(self, rng):
        h = _random_rows(rng, 3, 4)
        w = _random_rows(rng, 3, 4).conj().T
        parts = sum(_reference_user_rate(h, w, k, 1.0) for k in range(3))
        assert mu_opt.sum_rate(h, w, 1.0) == pytest.approx(parts, rel=1e-12)

    def test_dimension_mismatch(self, rng):
        for rates in (mu_opt._user_rates, mu_opt.sum_rate):
            with pytest.raises(InvalidParameterError):
                rates(_random_rows(rng, 2, 3), np.ones((4, 2)), 1.0)


class TestRzf:
    def test_zf_property(self, rng):
        h = _random_rows(rng, 3, 3)
        w = mu_opt.rzf(h, 0.0, np.ones(3))
        cross = h @ w
        diag = np.abs(np.diagonal(cross))
        off = np.abs(cross - np.diag(np.diagonal(cross)))
        assert np.max(off) / np.min(diag) <= 1e-8

    def test_large_reg_is_mrt(self, rng):
        h = _random_rows(rng, 3, 4)
        reg = 1e8 * float(np.linalg.norm(h) ** 2)
        w = mu_opt.rzf(h, reg, np.ones(3))
        mrt_dirs = h.conj().T / np.linalg.norm(h, axis=1)
        for k in range(3):
            inner = abs(np.vdot(mrt_dirs[:, k], w[:, k])) / np.linalg.norm(w[:, k])
            assert inner >= 1 - 1e-6

    def test_k1_reduces_to_mrt(self, rng):
        h = _random_rows(rng, 1, 4)
        for reg in (0.0, 1.0, 50.0):
            w = mu_opt.rzf(h, reg, np.ones(1))
            inner = abs(np.vdot(h.conj().T[:, 0], w[:, 0]))
            assert inner / (np.linalg.norm(h) * np.linalg.norm(w)) >= 1 - 1e-10

    def test_power_scaling(self, rng):
        h = _random_rows(rng, 2, 4)
        powers = np.array([2.0, 5.0])
        w = mu_opt.rzf(h, 0.3, powers)
        np.testing.assert_allclose(np.linalg.norm(w, axis=0) ** 2, powers, rtol=1e-10)

    def test_singular_zf_raises(self):
        h = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)  # rank 1
        with pytest.raises(SingularMatrixError):
            mu_opt.rzf(h, 0.0, np.ones(2))

    def test_negative_reg_rejected(self, rng):
        with pytest.raises(InvalidParameterError):
            mu_opt.rzf(_random_rows(rng, 2, 3), -1.0, np.ones(2))

    def test_mmse_matches_direct_formula(self, rng):
        """reg = noise power reproduces the MMSE direction identity."""
        h = _random_rows(rng, 3, 4)
        s2 = 0.42
        w = mu_opt.rzf(h, s2, np.ones(3))
        direct = h.conj().T @ np.linalg.inv(h @ h.conj().T + s2 * np.eye(3))
        direct = direct / np.linalg.norm(direct, axis=0)
        np.testing.assert_allclose(np.abs(np.sum(direct.conj() * w, axis=0)),
                                   1.0, atol=1e-10)


class TestFarFieldRates:
    def test_k1_closed_form(self):
        q = np.array([0.3 + 0.1j])
        rates = mu_opt.rzf_rate_far_field(q, np.array([2.0]), 4, 0.5)
        expected = np.log2(1 + 4 * 2.0 * abs(q[0]) ** 2 / 0.5)
        assert rates[0] == pytest.approx(expected, rel=1e-12)

    def test_pipeline_equivalence(self, small_geometry, rng):
        lam = 0.06
        k, n = 3, 4
        beta = 0.002 * np.exp(0.3j)
        h_iu = _random_rows(rng, k, 16) * 0.01
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        u = channel.plane_wave_response(small_geometry.element_positions(),
                                        [1, 0, 0], lam)
        q = beta * (h_iu.conj() * phi) @ u
        powers = rng.uniform(0.5, 2.0, k)
        s2 = 1e-8
        pos = np.array([[8.0 + 0.05 * i, 0, 0] for i in range(n)])
        h_bi = channel.far_field_bs_irs(pos, small_geometry, [1, 0, 0],
                                        [-1, 0, 0], beta, lam)
        rows = np.vstack([channel.cascaded_row(h_iu[i], phi, h_bi) for i in range(k)])
        w = mu_opt.rzf(rows, s2, powers)
        pipeline = mu_opt._user_rates(rows, w, s2)
        closed = mu_opt.rzf_rate_far_field(q, powers, n, s2)
        np.testing.assert_allclose(pipeline, closed, rtol=1e-8)


class TestWmmse:
    def test_k1_matches_mrt(self, rng):
        for _ in range(20):
            h = _random_rows(rng, 1, 4)
            p, s2 = 10.0, 1.0
            w0 = (h.conj().T / np.linalg.norm(h)) * np.sqrt(p / 4)
            w, trace = mu_opt.wmmse(h, w0, p, s2)
            target = np.log2(1 + p * np.linalg.norm(h) ** 2 / s2)
            assert abs(trace[-1] - target) / target <= 1e-6
            assert np.sum(np.abs(w) ** 2) <= p * (1 + 1e-6)

    def test_power_active_for_orthogonal_users(self):
        h = np.eye(3, dtype=complex) * np.array([[1.0], [0.8], [1.2]])
        p, s2 = 5.0, 0.1
        w0 = h.conj().T / np.linalg.norm(h, axis=1) * np.sqrt(p / 3)
        w, _ = mu_opt.wmmse(h, w0, p, s2)
        assert np.sum(np.abs(w) ** 2) == pytest.approx(p, rel=1e-6)

    def test_monotone_100_instances(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 5))
            h = _random_rows(rng, k, n)
            p, s2 = float(rng.uniform(1, 20)), float(rng.uniform(0.1, 2))
            w0 = h.conj().T / np.linalg.norm(h, axis=1) * np.sqrt(p / k)
            _, trace = mu_opt.wmmse(h, w0, p, s2)
            assert np.all(np.diff(trace) >= -1e-10)

    def test_power_budget_on_ill_conditioned_system(self):
        # three users, three antennas and a 74x channel scale: near the fixed
        # point A0 + mu I has condition ~1e10, and without the scaling the
        # solved precoder exceeds the power its eigenvalues give by 1.3e-6
        rng = np.random.default_rng(9)
        scale = 10.0 ** rng.uniform(1, 2)
        h_iu, h_bi = _random_rows(rng, 3, 4, scale), _random_rows(rng, 4, 3, scale)
        h = (h_iu.conj() * np.exp(1j * rng.uniform(0, 2 * np.pi, 4))) @ h_bi
        w0 = h.conj().T / np.linalg.norm(h, axis=1) * np.sqrt(1 / 3)
        w, trace = mu_opt.wmmse(h, w0, 1.0, 1.0)
        assert len(trace) > 6
        assert np.sum(np.abs(w) ** 2) <= 1 + 1e-6
        assert np.all(np.diff(trace) >= 0)

    def test_nonfinite_rejected(self):
        h = np.array([[np.nan + 0j, 1.0]])
        with pytest.raises(InvalidParameterError):
            mu_opt.wmmse(h, np.ones((2, 1), dtype=complex), 1.0, 1.0)

    @pytest.mark.parametrize("power, noise_power", [(0.0, 1.0), (-1.0, 1.0),
                                                    (1.0, 0.0), (1.0, -0.5)])
    def test_nonpositive_power_or_noise_rejected(self, rng, power, noise_power):
        h = _random_rows(rng, 3, 4)
        with pytest.raises(InvalidParameterError):
            mu_opt.wmmse(h, h.conj().T, power, noise_power)

    def test_unbracketable_multiplier_raises(self, rng):
        # the multiplier that meets this power lies far beyond the doubling cap
        h = _random_rows(rng, 3, 4)
        with pytest.raises(MultiplierBracketError):
            mu_opt.wmmse(h, h.conj().T, 1e-300, 1.0)


def _interaction_setup(rng, k=3, n=4, m=20):
    h_iu = _random_rows(rng, k, m)
    h_bi = _random_rows(rng, m, n).reshape(m, n)
    w = _random_rows(rng, k, n).conj().T
    r = mu_opt.interaction_vectors(h_iu, h_bi, w)
    phi = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    return h_iu, h_bi, w, r, phi


class TestObjectiveAndGradient:
    def test_objective_matches_cascade(self, rng):
        """phi^T r reproduces the physical cascade h_iu^H diag(phi) H w."""
        h_iu, h_bi, w, r, phi = _interaction_setup(rng)
        s2 = 0.3
        rows = np.vstack([channel.cascaded_row(h_iu[k], phi, h_bi)
                          for k in range(h_iu.shape[0])])
        direct = -mu_opt.sum_rate(rows, w, s2) * np.log(2.0)
        assert mu_opt.neg_sum_rate(phi, r, s2) == pytest.approx(direct, rel=1e-10)

    def test_gradient_finite_differences(self, rng):
        s2 = 0.5
        eps = 1e-6
        worst = 0.0
        for _ in range(20):
            _, _, _, r, phi = _interaction_setup(rng, m=20)
            grad = mu_opt.euclidean_grad_f2(phi, r, s2)
            for _ in range(20):
                d = rng.standard_normal(20) + 1j * rng.standard_normal(20)
                d /= np.linalg.norm(d)
                f_p = mu_opt.neg_sum_rate(phi + eps * d, r, s2)
                f_m = mu_opt.neg_sum_rate(phi - eps * d, r, s2)
                fd = (f_p - f_m) / (2 * eps)
                an = float(np.real(np.vdot(d, grad)))
                worst = max(worst, abs(fd - an) / max(abs(fd), 1e-12))
        assert worst <= 1e-5

    def test_zero_r_zero_gradient(self):
        phi = np.exp(1j * np.linspace(0, 1, 5))
        r = np.zeros((2, 2, 5), dtype=complex)
        np.testing.assert_array_equal(mu_opt.euclidean_grad_f2(phi, r, 1.0), 0.0)

    def test_k1_negative_gradient_is_ascent_on_gain(self, rng):
        _, _, _, r, phi = _interaction_setup(rng, k=1, n=1, m=10)
        s2 = 1e-3
        grad = mu_opt.euclidean_grad_f2(phi, r, s2)
        step = mu_opt.riemannian_project(grad, phi)
        before = abs(np.sum(phi * r[0, 0])) ** 2
        after = abs(np.sum((phi - 1e-4 * step) / np.abs(phi - 1e-4 * step)
                           * r[0, 0])) ** 2
        assert after > before


class TestManifoldPrimitives:
    def test_project_hand_case(self):
        out = mu_opt.riemannian_project(np.array([1 + 1j]), np.array([1.0 + 0j]))
        assert out[0] == pytest.approx(1j, abs=1e-12)

    def test_project_idempotent_and_tangent(self, rng):
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
        g = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        t = mu_opt.riemannian_project(g, phi)
        assert np.max(np.abs(np.real(t * np.conj(phi)))) <= 1e-10
        np.testing.assert_allclose(mu_opt.riemannian_project(t, phi), t, atol=1e-12)

    def test_transport_hand_case(self):
        out = mu_opt.riemannian_project(np.array([1 + 1j]), np.array([1j]))
        assert out[0] == pytest.approx(1.0, abs=1e-12)

    def test_transport_tangency(self, rng):
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
        eta = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        t = mu_opt.riemannian_project(eta, phi)
        assert np.max(np.abs(np.real(t * np.conj(phi)))) <= 1e-10

    def test_retract_hand_case(self):
        # phi + step * eta = [2, -3j]
        out = mu_opt._retract_step(np.array([1.0 + 0j, -1j]), 0.5, np.array([2.0, -4j]))
        np.testing.assert_allclose(out, [1.0, -1j], atol=1e-12)

    def test_retract_unit_modulus(self, rng):
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
        eta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        out = mu_opt._retract_step(phi, 0.7, eta)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)
        np.testing.assert_allclose(mu_opt._retract_step(phi, 0.0, eta), phi, atol=1e-12)

    def test_retract_zero_entry(self, rng):
        # an entry whose step lands on zero keeps its previous phase
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        eta = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        dead = [1, 4]
        eta[dead] = -2.0 * phi[dead]  # phi + 0.5 * eta is exactly 0 there
        out = mu_opt._retract_step(phi, 0.5, eta)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)
        np.testing.assert_array_equal(out[dead], phi[dead])
        live = [0, 2, 3, 5]
        v = phi[live] + 0.5 * eta[live]
        np.testing.assert_array_equal(out[live], v / np.abs(v))


class TestManifoldCg:
    @pytest.mark.parametrize("arg", ["h_iu", "h_bi", "w", "phi_init"])
    def test_nonfinite_input_rejected(self, rng, arg):
        h_iu, h_bi, w, _, phi = _interaction_setup(rng, k=2, n=2, m=8)
        args = dict(h_iu=h_iu, h_bi=h_bi, w=w, phi_init=phi)
        args[arg] = args[arg].copy()
        args[arg].flat[0] = np.inf if arg == "w" else np.nan
        with pytest.raises(InvalidParameterError):
            mu_opt.manifold_cg(noise_power=0.3, **args)

    def test_zero_phase_entry_rejected(self, rng):
        # a zero entry has no phase; normalizing it would give NaN phases
        h_iu, h_bi, w, _, phi = _interaction_setup(rng, k=2, n=2, m=8)
        phi[3] = 0.0
        with pytest.raises(InvalidParameterError, match="zero entry"):
            mu_opt.manifold_cg(h_iu, h_bi, w, phi, 0.3)

    def test_descent_on_random_instances(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            m = int(rng.integers(4, 16))
            h_iu = _random_rows(rng, k, m)
            h_bi = _random_rows(rng, m, n).reshape(m, n)
            w = _random_rows(rng, k, n).conj().T
            phi0 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            phi, trace = mu_opt.manifold_cg(h_iu, h_bi, w, phi0, 0.3,
                                            max_iter=50)
            assert np.all(np.diff(trace.objective) <= 1e-12)
            np.testing.assert_allclose(np.abs(phi), 1.0, atol=1e-10)

    def test_k1_near_cophased_bound(self, rng):
        for _ in range(10):
            m = 16
            h_iu = _random_rows(rng, 1, m)
            h_bi = _random_rows(rng, m, 1).reshape(m, 1)
            w = np.ones((1, 1), dtype=complex)
            r = mu_opt.interaction_vectors(h_iu, h_bi, w)[0, 0]
            phi0 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            phi, _ = mu_opt.manifold_cg(h_iu, h_bi, w, phi0, 1e-9)
            achieved = abs(np.sum(phi * r)) ** 2
            bound = float(np.sum(np.abs(r))) ** 2
            assert achieved >= 0.98 * bound

    def test_gradient_norm_at_termination(self, rng):
        m = 12
        h_iu = _random_rows(rng, 2, m)
        h_bi = _random_rows(rng, m, 2).reshape(m, 2)
        w = _random_rows(rng, 2, 2).conj().T
        phi0 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        tol = 1e-5
        phi, trace = mu_opt.manifold_cg(h_iu, h_bi, w, phi0, 0.3,
                                        grad_tol=tol, max_iter=5000)
        # terminates either below tolerance or at an Armijo stall
        assert trace.grad_norm[-1] <= tol or len(trace.objective) < 5001

    @pytest.mark.parametrize("kwargs, reason", [
        ({}, "tol"),
        ({"max_iter": 1}, "max_iter"),
        ({}, "line_search"),  # no trial step at all
    ])
    def test_exit_reason(self, rng, monkeypatch, kwargs, reason):
        if reason == "line_search":
            monkeypatch.setattr(mu_opt, "_MAX_BACKTRACKS", 0)
        h_iu, h_bi, w, _, phi0 = _interaction_setup(rng, k=1, n=2, m=8)
        phi, trace = mu_opt.manifold_cg(h_iu, h_bi, w, phi0, 0.3, **kwargs)
        assert trace.exit == reason
        steps = len(trace.objective) - 1
        if reason == "tol":
            assert trace.grad_norm[-1] <= 1e-6 and steps < 500
        elif reason == "max_iter":
            assert steps == 1 and trace.grad_norm[-1] > 1e-6
        else:
            assert steps == 0
            np.testing.assert_allclose(phi, phi0 / np.abs(phi0), atol=1e-15)


class TestSequentialPositionSearch:
    def _points(self, L, step=0.03):
        return np.stack([np.arange(L) * step, np.zeros(L), np.zeros(L)], axis=1)

    def test_single_antenna_global_argmax(self, rng):
        L = 10
        table = _random_rows(rng, 2, L)
        w = _random_rows(rng, 2, 1).conj().T
        got = mu_opt.sequential_position_search(table, w, 1, [4], 0.5)
        rates = [mu_opt.sum_rate(table[:, [i]], w, 0.5) for i in range(L)]
        assert got == [int(np.argmax(rates))]

    def test_feasible_output_and_monotone(self, rng):
        L, n = 14, 3
        pts = self._points(L)
        table = _random_rows(rng, 2, L)
        w = _random_rows(rng, 2, n).conj().T
        init = [0, 4, 8]
        min_spacing = 0.06 - 1e-9
        got = init
        for _ in range(3):
            got = mu_opt.sequential_position_search(table, w, 2, got, 0.5)
        for i, j in itertools.combinations(got, 2):
            assert np.linalg.norm(pts[i] - pts[j]) >= min_spacing - 1e-12
        before = mu_opt.sum_rate(table[:, init], w, 0.5)
        after = mu_opt.sum_rate(table[:, got], w, 0.5)
        assert after >= before - 1e-12

    def test_empty_feasible_set_keeps_position(self, rng):
        # spacing so large that no alternative is feasible for either antenna
        L = 5
        pts = self._points(L)
        table = _random_rows(rng, 1, L)
        w = np.ones((2, 1), dtype=complex)
        assert mu_opt.sequential_position_search(table, w, 4, [0, 4], 0.5) == [0, 4]
        assert _reference_position_search(table, pts, w, 0.12 - 1e-9, [0, 4], 0.5) == [0, 4]

    @pytest.mark.xfail(
        reason="one-at-a-time coordinate ascent is not jointly optimal; "
               "matches the joint exhaustive optimum on only ~1/3 of random "
               "instances (see the decisions ledger)",
        strict=True)
    def test_matches_joint_exhaustive_n2(self, rng):
        for _ in range(50):
            L = int(rng.integers(6, 16))
            table = _random_rows(rng, 2, L)
            w = _random_rows(rng, 2, 2).conj().T
            gap = 2
            feas = [(i, j) for i in range(L) for j in range(L)
                    if abs(i - j) >= gap]
            def rate(c):
                return mu_opt.sum_rate(table[:, list(c)], w, 0.5)
            best = max(feas, key=rate)
            got = [0, gap]
            for _ in range(10):
                got = mu_opt.sequential_position_search(table, w, gap, got, 0.5)
            assert rate(got) == pytest.approx(rate(best), rel=1e-10)


def _mu_setup(scenario, seed=0):
    rng = np.random.default_rng(seed)
    geometry = scenario.geometry()
    model = channel.BsIrsModel(geometry, scenario.wavelength)
    h_iu = np.vstack([rician_row(rng, geometry, scenario)
                      for _ in range(scenario.num_users)])
    grid = su_opt.SamplingGrid.from_region(scenario.region(),
                                           scenario.sample_spacing,
                                           scenario.min_spacing)
    phi0 = su_opt.random_reflection(rng, geometry.num_elements)
    idx0 = su_opt.fpa_indices(grid, scenario.num_mas)
    return h_iu, model, grid, phi0, idx0


class TestAoMultiUser:
    def test_trace_monotone(self, small_scenario):
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _mu_setup(s)
        sol = mu_opt.ao_multi_user(h_iu, model.matrix(grid.points), grid, phi0, idx0,
                                   s.transmit_power, s.noise_power,
                                   min_spacing=s.min_spacing)
        assert np.all(np.diff(sol.trace) >= -1e-9)
        assert sol.rate == pytest.approx(sol.trace[-1])
        assert sol.iterations <= 50

    def test_far_field_ma_equals_fpa(self, small_scenario, rng):
        s = small_scenario
        lam = s.wavelength
        geometry = s.geometry()
        region = s.region()
        dep = -region.center_array / np.linalg.norm(region.center_array)

        class FarFieldModel:
            def matrix(self, positions):
                return channel.far_field_bs_irs(positions, geometry, [1, 0, 0],
                                                dep, 0.0005 + 0.001j, lam)

        h_iu, _, grid, phi0, idx0 = _mu_setup(s, seed=5)
        common = dict(min_spacing=s.min_spacing, optimize_phi=False)
        columns = FarFieldModel().matrix(grid.points)
        fpa = mu_opt.ao_multi_user(h_iu, columns, grid, phi0, idx0,
                                   s.transmit_power, s.noise_power,
                                   optimize_positions=False, **common)
        ma = mu_opt.ao_multi_user(h_iu, columns, grid, phi0, idx0,
                                  s.transmit_power, s.noise_power,
                                  optimize_positions=True, **common)
        assert abs(ma.rate - fpa.rate) / fpa.rate <= 1e-4

    def test_columns_of_another_grid_rejected(self, small_scenario):
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _mu_setup(s)
        with pytest.raises(InvalidParameterError):
            mu_opt.ao_multi_user(h_iu, model.matrix(grid.points[:-1]), grid, phi0,
                                 idx0, s.transmit_power, s.noise_power,
                                 min_spacing=s.min_spacing)

    def test_grid_with_smaller_spacing_rejected(self, small_scenario):
        s = small_scenario
        h_iu, model, _, phi0, idx0 = _mu_setup(s)
        grid = su_opt.SamplingGrid.from_region(s.region(), s.sample_spacing,
                                               s.min_spacing / 2)
        with pytest.raises(InvalidParameterError):
            mu_opt.ao_multi_user(h_iu, model.matrix(grid.points), grid, phi0, idx0,
                                 s.transmit_power, s.noise_power,
                                 min_spacing=s.min_spacing)

    # `harness.cell_context` checks h_iu and the grid columns
    # (test_harness.py::TestCellContext::test_nonfinite_cell_rejected)
    @pytest.mark.parametrize("arg", ["phi_init", "w_init"])
    def test_nonfinite_input_rejected(self, small_scenario, arg):
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _mu_setup(s)
        args = dict(h_iu=h_iu, grid_columns=model.matrix(grid.points), phi_init=phi0,
                    w_init=np.ones((s.num_mas, s.num_users), dtype=complex))
        args[arg] = args[arg].copy()
        args[arg].flat[-1] = np.nan
        with pytest.raises(InvalidParameterError):
            mu_opt.ao_multi_user(grid=grid, init_indices=idx0, power=s.transmit_power,
                                 noise_power=s.noise_power, min_spacing=s.min_spacing,
                                 **args)


@pytest.fixture(scope="module")
def one_user_rates():
    """`(channel, distance, realization, scheme) -> (multi-user rate,
    single-user rate)` of FPA and PROPOSED on 12 cells at K = 1: the two
    multi-user configs ("los", "multipath") at 1, 2 and 6 m, two draws each.
    Both solvers start from the cell's FPA start, on the same grid columns and
    initial indices."""
    rates = {}
    for channel_kind in ("los", "multipath"):
        data = load_config(CONFIGS / f"multi_user_{channel_kind}_sweep.yaml")
        base = scenario_from_dict(data["scenario"]).replace(num_users=1)
        sweep = data["sweep"]
        for distance in (1.0, 2.0, 6.0):
            vi = sweep["values"].index(distance)
            s = harness.apply_parameter(base, sweep["parameter"], distance)
            for r in range(2):
                ctx = harness.cell_context(
                    s, substream(sweep["seed"], "chan", sweep["parameter"], vi, r))
                idx0 = su_opt.fpa_indices(ctx.fine, s.num_mas)
                phi0 = su_opt.random_reflection(
                    substream(sweep["seed"], "init", vi, r, harness.FPA), ctx.h_iu.shape[1])
                for scheme in (harness.FPA, harness.PROPOSED):
                    moves = scheme == harness.PROPOSED
                    multi = mu_opt.ao_multi_user(
                        ctx.h_iu, ctx.fine_columns, ctx.fine, phi0, idx0, s.transmit_power,
                        s.noise_power, min_spacing=s.min_spacing, optimize_positions=moves)
                    single = su_opt.ao_single_user(
                        ctx.h_iu[0], ctx.fine_columns, ctx.fine, phi0, idx0,
                        s.transmit_power, s.noise_power, optimize_positions=moves)
                    rates[channel_kind, distance, r, scheme] = (multi.rate, single.rate)
    return rates


def _one_user_gaps(rates, scheme, channel_kind=None) -> dict:
    """Multi-user minus single-user rate per cell of `scheme`."""
    return {key[:3]: multi - single for key, (multi, single) in rates.items()
            if key[3] == scheme and channel_kind in (None, key[0])}


class TestOneUserOracle:
    """At K = 1 the multi-user solver maximizes the single-user SNR, and WMMSE's
    fixed point is MRT at full power, so the single-user solver (BCD and the
    placement DP) is an oracle for it."""

    def test_fpa_matches_single_user_on_los_cells(self, one_user_rates, record_property):
        los = _one_user_gaps(one_user_rates, harness.FPA, "los")
        assert len(los) == 6
        # the gaps are at most 2.6e-6; a CG capped at 5 steps misses by up to 7.9e-5
        assert max(map(abs, los.values())) <= 1e-5, los
        # recorded only: on multipath cells the CG stops short of the BCD
        multipath = _one_user_gaps(one_user_rates, harness.FPA, "multipath")
        record_property("fpa_multipath_worst_gap", min(multipath.values()))

    @pytest.mark.xfail(
        reason="the multi-user position search scores each candidate with the "
               "old precoder, and the single-user DP re-solves it",
        strict=True)
    def test_proposed_reaches_single_user(self, one_user_rates):
        gaps = _one_user_gaps(one_user_rates, harness.PROPOSED)
        worst = min(gaps, key=gaps.get)
        assert len(gaps) == 12
        assert gaps[worst] >= -1e-2, (
            f"worst gap {gaps[worst]:.3g} bit/s/Hz at (channel, distance, "
            f"realization) = {worst}")


# ---------------------------------------------------------------------------
# Reference implementations of the matmul objective and gradient, of WMMSE on
# full solves with a bisected multiplier, and of the position search.


def _reference_neg_sum_rate(phi, r, noise_power):
    z = np.einsum("m,kim->ki", phi, r)
    p = np.abs(z) ** 2
    total = np.sum(p, axis=1) + noise_power
    interf = total - np.diagonal(p)
    return float(-np.sum(np.log(total) - np.log(interf)))


def _reference_grad(phi, r, noise_power):
    z = np.einsum("m,kim->ki", phi, r)
    p = np.abs(z) ** 2
    total = np.sum(p, axis=1) + noise_power
    interf = total - np.diagonal(p)
    per_term = np.conj(r) * z[:, :, None]
    sum_all = np.sum(per_term, axis=1)
    sum_int = sum_all - per_term[np.arange(r.shape[0]), np.arange(r.shape[0])]
    return -2.0 * np.sum(sum_all / total[:, None] - sum_int / interf[:, None], axis=0)


def _reference_precoder(a0, rhs, mu):
    """(A0 + mu I)^-1 rhs solved by np.linalg: the minimum-norm solution at
    mu = 0, where A0 can be rank-deficient."""
    if mu == 0:
        return np.linalg.pinv(a0, hermitian=True) @ rhs
    return np.linalg.solve(a0 + mu * np.eye(a0.shape[0]), rhs)


def _reference_multiplier(total_power, power, steps=200):
    """The multiplier at which the decreasing `total_power` meets `power`,
    after doubling a bracket from 1 and `steps` bisection steps."""
    hi = 1.0
    while total_power(hi) > power:
        hi *= 2.0
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if total_power(mid) > power:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_wmmse(h_rows, w_init, power, noise_power, tol=1e-6, max_iter=200):
    """WMMSE with the precoder solved by np.linalg, the multiplier bisected
    60 steps on the solved precoder's power (to 2**-60 of the doubled
    bracket), and the rates from `sum_rate`."""
    w = np.asarray(w_init, dtype=complex).copy()
    trace = [mu_opt.sum_rate(h_rows, w, noise_power)]
    for _ in range(max_iter):
        hw = h_rows @ w
        totals = np.sum(np.abs(hw) ** 2, axis=1) + noise_power
        chi = np.diag(hw) / totals
        kappa = 1.0 / np.real(1.0 - chi.conj() * np.diag(hw))
        a0, rhs = mu_opt._wmmse_system(h_rows, chi, kappa)

        def total_power(mu):
            return float(np.sum(np.abs(_reference_precoder(a0, rhs, mu)) ** 2))

        mu = 0.0
        if total_power(0.0) > power * (1 + 1e-9):
            mu = _reference_multiplier(total_power, power, steps=60)
        w_new = _reference_precoder(a0, rhs, mu)
        rate = mu_opt.sum_rate(h_rows, w_new, noise_power)
        if rate < trace[-1]:
            break
        w = w_new
        trace.append(rate)
        if trace[-1] - trace[-2] <= tol * max(abs(trace[-2]), 1e-300):
            break
    return w, trace


def _first_iteration_calls(monkeypatch):
    """Stop `wmmse` after one iteration, and record the precoders it builds
    and the arguments of its multiplier searches."""
    precoders, multipliers = [], []
    precoder, multiplier = mu_opt._wmmse_precoder, mu_opt._power_multiplier

    def recording_precoder(*args):
        precoders.append(precoder(*args))
        return precoders[-1]

    def recording_multiplier(*args):
        multipliers.append(args)
        return multiplier(*args)

    monkeypatch.setattr(mu_opt, "_WMMSE_MAX_ITER", 1)
    monkeypatch.setattr(mu_opt, "_wmmse_precoder", recording_precoder)
    monkeypatch.setattr(mu_opt, "_power_multiplier", recording_multiplier)
    return precoders, multipliers


def _reference_step_one_cg(h_iu, h_bi, w, phi_init, noise_power, max_iter=500):
    """Manifold CG whose every Armijo search starts at step 1; returns the
    final objective."""
    r = mu_opt.interaction_vectors(h_iu, h_bi, w)
    phi = np.asarray(phi_init, dtype=complex) / np.abs(phi_init)
    f = mu_opt.neg_sum_rate(phi, r, noise_power)
    grad = mu_opt.riemannian_project(mu_opt.euclidean_grad_f2(phi, r, noise_power), phi)
    eta = -grad
    for _ in range(max_iter):
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= 1e-6:
            break
        slope = float(np.real(np.vdot(grad, eta)))
        if slope >= 0:
            eta = -grad
            slope = -gnorm ** 2
        step = 1.0
        for _ in range(30):
            cand = mu_opt._retract_step(phi, step, eta)
            f_cand = mu_opt.neg_sum_rate(cand, r, noise_power)
            if f_cand <= f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        grad_new = mu_opt.riemannian_project(
            mu_opt.euclidean_grad_f2(cand, r, noise_power), cand)
        grad_prev = mu_opt.riemannian_project(grad, cand)
        tau = max(0.0, float(np.real(np.vdot(grad_new, grad_new - grad_prev)))
                  / max(gnorm ** 2, 1e-300))
        eta = -grad_new + tau * mu_opt.riemannian_project(eta, cand)
        phi, grad, f = cand, grad_new, f_cand
    return f


def _reference_cg_objective(phi, r, noise_power):
    k = r.shape[0]
    p = np.abs((r.reshape(k * k, -1) @ phi).reshape(k, k)) ** 2
    total = p.sum(axis=1) + noise_power
    interf = total - p.diagonal()
    return float(-(np.log(total) - np.log(interf)).sum())


def _reference_cg_gradient(phi, r, noise_power):
    k = r.shape[0]
    z = (r.reshape(k * k, -1) @ phi).reshape(k, k)
    p = np.abs(z) ** 2
    total = p.sum(axis=1) + noise_power
    interf = total - p.diagonal()
    inv_total = 1.0 / total
    c = z * (inv_total - 1.0 / interf)[:, None]
    c.flat[::k + 1] = z.diagonal() * inv_total
    return -2.0 * (c.conj().ravel() @ r.reshape(k * k, -1)).conj()


def _reference_manifold_cg(h_iu, h_bi, w, phi_init, noise_power, grad_tol=1e-6,
                           max_iter=500, max_backtracks=30):
    """The Barzilai-Borwein CG with every vector projected on its own, norms
    from np.linalg.norm and a fresh array for each operation; returns the
    phases, objective trace, gradient-norm trace and exit reason."""
    def project(v, phi):
        return v - (v * phi.conj()).real * phi

    def retract(phi, step, eta):
        v = phi + step * eta
        mags = np.abs(v)
        if not mags.all():
            zero = mags == 0
            v = np.where(zero, phi, v)
            mags = np.where(zero, 1.0, mags)
        return v / mags

    r = mu_opt.interaction_vectors(h_iu, h_bi, w)
    phi = np.asarray(phi_init, dtype=complex).copy()
    phi = phi / np.abs(phi)
    f = _reference_cg_objective(phi, r, noise_power)
    grad = project(_reference_cg_gradient(phi, r, noise_power), phi)
    eta = -grad
    gnorm = float(np.linalg.norm(grad))
    objective, grad_norm = [f], [gnorm]
    step = 1.0
    for _ in range(max_iter):
        if gnorm <= grad_tol:
            break
        slope = float(np.real(np.vdot(grad, eta)))
        if slope >= 0:
            eta = -grad
            slope = -gnorm ** 2
        accepted = False
        for _ in range(max_backtracks):
            cand = retract(phi, step, eta)
            f_cand = _reference_cg_objective(cand, r, noise_power)
            if f_cand <= f + 1e-4 * step * slope:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            return phi, objective, grad_norm, "line_search"
        grad_new = project(_reference_cg_gradient(cand, r, noise_power), cand)
        grad_prev = project(grad, cand)
        eta_prev = project(eta, cand)
        tau = float(np.real(np.vdot(grad_new, grad_new - grad_prev))) / max(gnorm ** 2, 1e-300)
        tau = max(0.0, tau)
        eta = -grad_new + tau * eta_prev
        phi, grad, f = cand, grad_new, f_cand
        gnorm = float(np.linalg.norm(grad))
        objective.append(f)
        grad_norm.append(gnorm)
        s_vec = step * eta_prev
        sy = float(np.real(np.vdot(s_vec, grad_new - grad_prev)))
        if sy > 0:
            step = (float(np.real(np.vdot(s_vec, s_vec))) / sy
                    * gnorm / max(float(np.linalg.norm(eta)), 1e-300))
        else:
            step *= 2.0
    return phi, objective, grad_norm, "tol" if gnorm <= grad_tol else "max_iter"


def _reference_position_search(table, points, w, min_spacing, init, noise_power,
                               sweeps=1):
    """One sum_rate call per feasible candidate."""
    indices = list(init)
    for _ in range(sweeps):
        for n in range(len(indices)):
            others = [indices[m] for m in range(len(indices)) if m != n]
            if others:
                dists = np.linalg.norm(points[:, None, :] - points[others][None, :, :], axis=2)
                feasible = np.where(np.all(dists >= min_spacing - 1e-12, axis=1))[0]
            else:
                feasible = np.arange(len(points))
            if len(feasible) == 0:
                continue
            best_idx, best_rate = indices[n], -np.inf
            h = table[:, indices].copy()
            for cand in feasible:
                h[:, n] = table[:, cand]
                rate = mu_opt.sum_rate(h, w, noise_power)
                if rate > best_rate + 1e-15:
                    best_rate, best_idx = rate, int(cand)
            indices[n] = best_idx
    return indices


def _broadcast_position_search(cascade_table, w, min_gap, init_indices, noise_power):
    """The batched position search that tests the spacing of every candidate
    against every other antenna in one (L, N - 1) broadcast."""
    indices = list(init_indices)
    num_mas = len(indices)
    candidates = np.arange(cascade_table.shape[1])
    for n in range(num_mas):
        keep = np.arange(num_mas) != n
        others = np.asarray(indices)[keep]
        feasible = candidates[np.all(
            np.abs(candidates[:, None] - others[None, :]) >= min_gap, axis=1)]
        if len(feasible) == 0:
            continue
        base = cascade_table[:, others] @ w[keep]
        links = base[None] + cascade_table[:, feasible].T[:, :, None] * w[n]
        gains = np.abs(links) ** 2
        signal = np.diagonal(gains, axis1=1, axis2=2)
        interference = np.sum(gains, axis=2) - signal
        rates = np.sum(np.log2(1 + signal / (interference + noise_power)), axis=1)
        indices[n] = int(feasible[np.argmax(rates)])
    return indices


class TestRewriteEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_objective_and_gradient_match_einsum(self, rng, k):
        for _ in range(20):
            _, _, _, r, phi = _interaction_setup(rng, k=k, n=int(rng.integers(1, 5)),
                                                 m=int(rng.integers(4, 40)))
            s2 = float(rng.uniform(0.05, 2.0))
            assert mu_opt.neg_sum_rate(phi, r, s2) == pytest.approx(
                _reference_neg_sum_rate(phi, r, s2), rel=1e-12)
            ref = _reference_grad(phi, r, s2)
            got = mu_opt.euclidean_grad_f2(phi, r, s2)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k, n, zero_weight", [(2, 4, False), (3, 3, False),
                                                   (4, 2, False), (3, 4, True)])
    def test_eigen_power_matches_full_solve(self, rng, k, n, zero_weight):
        # the eigen-basis precoder at mu > 0 is the solved one, and its power
        # is sum_j b_j / (lam_j + mu)^2
        for _ in range(10):
            h = _random_rows(rng, k, n)
            chi = _random_rows(rng, 1, k)[0]
            kappa = rng.uniform(0.5, 3.0, k)
            if zero_weight:
                chi[1] = 0.0
            a0, rhs = mu_opt._wmmse_system(h, chi, kappa)
            lam, u = np.linalg.eigh(a0)
            lam = np.maximum(lam, 0.0)
            proj = u.conj().T @ rhs
            b = np.sum(np.abs(proj) ** 2, axis=1)
            for scale in (1e-3, 1e-1, 1.0, 10.0, 1e3):
                mu = scale * float(np.max(lam))
                w = mu_opt._wmmse_precoder(u, proj, 1.0 / (lam + mu))
                full = _reference_precoder(a0, rhs, mu)
                assert np.linalg.norm(w - full) <= 1e-10 * np.linalg.norm(full)
                assert float(np.sum(b / (lam + mu) ** 2)) == pytest.approx(
                    float(np.sum(np.abs(w) ** 2)), rel=1e-10)

    def test_wmmse_matches_full_solve_bisection(self, rng):
        # powers up to 1e4 make the unconstrained precoder feasible on some
        # iterations, so both branches of the power test run
        for _ in range(50):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            h = _random_rows(rng, k, n)
            p, s2 = 10.0 ** float(rng.uniform(-1, 4)), float(rng.uniform(0.05, 2))
            w0 = h.conj().T / np.linalg.norm(h, axis=1) * np.sqrt(p / k)
            w, trace = mu_opt.wmmse(h, w0, p, s2)
            w_ref, trace_ref = _reference_wmmse(h, w0, p, s2)
            # rounding decides only where the two stop on their last step
            common = min(len(trace), len(trace_ref))
            np.testing.assert_allclose(trace[:common], trace_ref[:common], rtol=1e-9)
            assert abs(len(trace) - len(trace_ref)) <= 1
            assert trace[-1] == pytest.approx(trace_ref[-1], rel=1e-6)
            assert float(np.sum(np.abs(w) ** 2)) <= p * (1 + 1e-9)

    @staticmethod
    def _multiplier_instance(rng, n, i):
        """Eigenvalues over six decades, a zero eigenvalue or a zero weight
        on some instances, and a power that a multiplier in [1e-4, 1e4]
        meets."""
        lam = rng.uniform(0.1, 1.0, n) * 10.0 ** rng.uniform(-3, 3, n)
        b = rng.uniform(0.1, 5.0, n)
        if i % 4 in (1, 3):
            lam[-1] = 0.0
        if i % 4 in (2, 3) and n > 1:
            b[0] = 0.0
        power = float(np.sum(b / (lam + 10.0 ** rng.uniform(-4, 4)) ** 2))
        return lam, b, power

    def test_power_multiplier_matches_bisection(self, rng):
        # Newton meets the power to 1e-12; a 1e-12 relative power error moves
        # mu by up to 1e-12 (lam_max + mu) / 2, so mu agrees with the
        # bisection's on that scale, not relative to mu when lam >> mu
        for i in range(480):
            lam, b, power = self._multiplier_instance(rng, 1 + i % 12, i)
            order = np.argsort(lam)  # ascending, as eigh returns it
            mu = mu_opt._power_multiplier(lam[order], b[order], power)
            assert abs(float(np.sum(b / (lam + mu) ** 2)) - power) <= 1e-12 * power
            ref = _reference_multiplier(lambda m: float(np.sum(b / (lam + m) ** 2)), power)
            assert abs(mu - ref) <= 1e-12 * (ref + float(np.max(lam[b > 0])))

    def test_power_multiplier_meets_tolerance_for_large_n(self, rng):
        # from 8 terms numpy sums pairwise, so only the tolerance is shared
        for i in range(100):
            lam, b, power = self._multiplier_instance(rng, 8 + i % 5, i)
            mu = mu_opt._power_multiplier(lam, b, power)
            assert mu > 0
            assert abs(float(np.sum(b / (lam + mu) ** 2)) - power) <= 1e-6 * power

    @pytest.mark.parametrize("k, n, zero_weight", [(1, 1, False), (1, 4, False),
                                                   (2, 4, False), (3, 4, False),
                                                   (3, 3, False), (4, 2, False),
                                                   (3, 4, True)])
    def test_eigen_power_test_matches_pinv_norm(self, rng, monkeypatch, k, n, zero_weight):
        # the precoder at mu = 0 is pinv's minimum-norm one, and the power
        # test decides on its norm: kept at 2x and 1 + 1e-12 times that norm
        # over the 1e-9 slack, searched below
        precoders, multipliers = _first_iteration_calls(monkeypatch)
        for _ in range(80):
            h = _random_rows(rng, k, n, scale=10.0 ** rng.uniform(-3, 3))
            w0 = _random_rows(rng, k, n).conj().T
            if zero_weight:
                w0[:, 1] = 0.0  # user 1's receiver, and so its weight in A0, is zero
            chi, kappa, _ = mu_opt._wmmse_weights(h @ w0, 1.0)
            a0, rhs = mu_opt._wmmse_system(h, chi, kappa)
            ref = np.linalg.pinv(a0, hermitian=True) @ rhs
            full = float(np.sum(np.abs(ref) ** 2))
            for power, kept in ((2.0 * full, True), (0.5 * full, False),
                                (full * (1 + 1e-12) / (1 + 1e-9), True),
                                (full * (1 - 1e-12) / (1 + 1e-9), False)):
                precoders.clear()
                multipliers.clear()
                mu_opt.wmmse(h, w0, power, 1.0)
                assert len(precoders) == 1 and len(multipliers) == (0 if kept else 1)
                if kept:
                    assert np.linalg.norm(precoders[0] - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_sum_rate_is_sum_of_user_rates(self, rng, k):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            h = _random_rows(rng, k, n, scale=10.0 ** rng.uniform(-3, 3))
            w = _random_rows(rng, k, n).conj().T
            s2 = 10.0 ** rng.uniform(-3, 1)
            ref = [_reference_user_rate(h, w, j, s2) for j in range(k)]
            assert mu_opt._user_rates(h, w, s2).tolist() == ref
            assert mu_opt.sum_rate(h, w, s2) == sum(ref)

    @staticmethod
    def _cg_instances(rng):
        """Random instances (K = 1-4, N = 1-4, M = 4-60, channel scales over
        four decades), each run to its default stop, to a max_iter of 1-5
        and with one trial step per search, then the five line-of-sight
        cells of TestManifoldCgConvergence. Yields the arguments, the
        keyword arguments and the trial steps per search."""
        for i in range(60):
            k, n, m = (int(v) for v in rng.integers((1, 1, 4), (5, 5, 61)))
            scale = 10.0 ** rng.uniform(-2, 2)
            h_iu = _random_rows(rng, k, m, scale)
            h_bi = _random_rows(rng, m, n)
            w = _random_rows(rng, k, n).conj().T
            phi0 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            kwargs, backtracks = (({}, _BACKTRACKS),
                                  ({"max_iter": int(rng.integers(1, 6))}, _BACKTRACKS),
                                  ({"grad_tol": 0.0}, 1))[i % 3]
            yield (h_iu, h_bi, w, phi0, float(rng.uniform(0.05, 2.0))), kwargs, backtracks
        for args in TestManifoldCgConvergence._cells():
            yield args, {}, _BACKTRACKS

    def test_manifold_cg_matches_reference_loop_bit_for_bit(self, rng, monkeypatch):
        exits = []
        for args, kwargs, backtracks in self._cg_instances(rng):
            monkeypatch.setattr(mu_opt, "_MAX_BACKTRACKS", backtracks)
            phi, trace = mu_opt.manifold_cg(*args, **kwargs)
            ref_phi, ref_objective, ref_grad_norm, ref_exit = _reference_manifold_cg(
                *args, **kwargs, max_backtracks=backtracks)
            assert phi.tobytes() == ref_phi.tobytes()
            assert np.array(trace.objective).tobytes() == np.array(ref_objective).tobytes()
            assert np.array(trace.grad_norm).tobytes() == np.array(ref_grad_norm).tobytes()
            assert trace.exit == ref_exit
            exits.append(trace.exit)
        assert set(exits) == {"tol", "max_iter", "line_search"}

    @pytest.mark.parametrize("excess", [0.5e-9, 2e-9])
    def test_power_test_keeps_its_slack(self, rng, monkeypatch, excess):
        # the unconstrained precoder exceeds the budget by `excess`: within
        # the 1e-9 slack it is kept, beyond it the multiplier meets the budget
        precoders, multipliers = _first_iteration_calls(monkeypatch)
        for _ in range(20):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(k, 5))
            h = _random_rows(rng, k, n)
            w0 = h.conj().T / np.linalg.norm(h, axis=1)
            chi, kappa, _ = mu_opt._wmmse_weights(h @ w0, 1.0)
            ref = _reference_precoder(*mu_opt._wmmse_system(h, chi, kappa), 0.0)
            full = float(np.sum(np.abs(ref) ** 2))
            p = full / (1 + excess)
            precoders.clear()
            multipliers.clear()
            mu_opt.wmmse(h, w0, p, 1.0)
            power = float(np.sum(np.abs(precoders[0]) ** 2))
            if excess < 1e-9:
                assert not multipliers
                assert power == pytest.approx(full, rel=1e-12)
            else:
                assert len(multipliers) == 1
                assert power == pytest.approx(p, rel=1e-12)

    @staticmethod
    def _points(L, step=0.03):
        return np.stack([np.arange(L) * step, np.zeros(L), np.zeros(L)], axis=1)

    def test_batched_search_matches_per_candidate_loop(self, rng):
        for _ in range(30):
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            L = int(rng.integers(3 * n, 30))
            pts = self._points(L)
            table = _random_rows(rng, k, L)
            w = _random_rows(rng, k, n).conj().T
            init = list(range(0, 2 * n, 2))
            got = init
            for _ in range(2):
                got = mu_opt.sequential_position_search(table, w, 2, got, 0.5)
            assert got == _reference_position_search(table, pts, w, 0.06 - 1e-9,
                                                     init, 0.5, sweeps=2)

    def test_index_gap_search_matches_euclidean_reference(self, rng):
        # cell-centered grids along an oblique axis with min_spacing =
        # gap * step - 1e-9: the index-gap rule and the reference's Euclidean
        # rule select the same positions
        for length, step, gap in [(0.6, 0.006, 5), (0.6, 0.03, 1), (0.3, 0.006, 3),
                                  (0.2, 0.03, 2), (0.45, 0.0119, 4)]:
            region = TransmitRegion((5.0, 5.0, 0.0), (1.0, 1.0, 0.5), length)
            grid = su_opt.SamplingGrid.from_region(region, step, step)
            min_spacing = gap * grid.spacing - 1e-9
            assert su_opt._index_gap(min_spacing, grid.spacing) == gap
            for _ in range(5):
                k, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                table = _random_rows(rng, k, grid.num_points)
                w = _random_rows(rng, k, n).conj().T
                init = list(range(0, n * gap, gap))
                got = mu_opt.sequential_position_search(table, w, gap, init, 0.5)
                assert got == _reference_position_search(table, grid.points, w,
                                                         min_spacing, init, 0.5)

    def test_window_search_matches_broadcast_search(self, rng):
        # min_gap 1-4, with antennas on both ends of the grid on every other
        # instance, so the blocked windows are clipped there
        for i in range(200):
            gap = 1 + i % 4
            n = int(rng.integers(2, 5))
            L = int(rng.integers((n - 1) * gap + 1, 30))
            table = _random_rows(rng, int(rng.integers(1, 4)), L)
            w = _random_rows(rng, table.shape[0], n).conj().T
            init = list(range(0, (n - 1) * gap, gap)) + [L - 1]
            if i % 2:
                init = sorted(int(j) for j in rng.choice(L, n, replace=False))
            got = mu_opt.sequential_position_search(table, w, gap, init, 0.5)
            assert got == _broadcast_position_search(table, w, gap, init, 0.5)

    def test_batched_search_ties_go_to_lowest_index(self, rng):
        for _ in range(20):
            k, n, half = 2, 2, 8
            cols = _random_rows(rng, k, half)
            table = np.hstack([cols, cols, cols])  # every column appears three times
            pts = self._points(3 * half)
            w = _random_rows(rng, k, n).conj().T
            got = mu_opt.sequential_position_search(table, w, 2, [20, 23], 0.5)
            assert got == _reference_position_search(table, pts, w, 0.06 - 1e-9,
                                                     [20, 23], 0.5)
            # each antenna takes the lowest feasible copy of its best column;
            # for antenna 0 (moved first, antenna 1 at 23) that is the first copy
            assert got[0] < half
            copies = [got[1] % half + t * half for t in range(3)]
            assert got[1] == min(j for j in copies if abs(j - got[0]) >= 2)


class TestManifoldCgConvergence:
    """The CG on instances drawn like the first reflection update of a
    line-of-sight sweep cell (K=3 users, N=4 antennas, M=225 elements, one
    cell at each distance from 2 to 6 m)."""

    @staticmethod
    def _cells(seed=3):
        base = Scenario(num_users=3, num_paths=0, master_seed=0)
        for vi, distance in enumerate((2.0, 3.0, 4.0, 5.0, 6.0)):
            s = harness.apply_parameter(base, "bs_irs_distance", distance)
            ctx = harness.cell_context(s, substream(seed, "chan", "bs_irs_distance", vi, 0))
            idx = su_opt.fpa_indices(ctx.fine, s.num_mas)
            phi0 = su_opt.random_reflection(substream(seed, "init", vi, 0, harness.FPA),
                                            ctx.fine_columns.shape[0])
            columns = ctx.fine_columns[:, idx]
            h = (ctx.h_iu.conj() * phi0) @ columns
            w0 = h.conj().T / np.linalg.norm(h, axis=1) * np.sqrt(s.transmit_power / 3)
            w, _ = mu_opt.wmmse(h, w0, s.transmit_power, s.noise_power)
            yield ctx.h_iu, columns, w, phi0, s.noise_power

    def test_converges_and_beats_step_one_search(self):
        for args in self._cells():
            assert args[1].shape == (225, 4) and args[2].shape == (4, 3)
            _, trace = mu_opt.manifold_cg(*args)
            assert trace.exit == "tol"
            assert trace.objective[-1] <= _reference_step_one_cg(*args)


@pytest.fixture(scope="module")
def los_solver_calls():
    """The arguments of every `wmmse` and `manifold_cg` call that two
    line-of-sight sweep cells (K=3, N=4, M=225, at 2 and 6 m) make."""
    base = Scenario(num_users=3, num_paths=0, master_seed=0)
    spec = harness.SweepSpec(parameter="bs_irs_distance", values=(2.0, 6.0),
                             realizations=1, seed=3)
    calls = {"wmmse": [], "manifold_cg": []}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            mp.setattr(mu_opt, name, recording(name, getattr(mu_opt, name)))
        for vi, value in enumerate(spec.values):
            harness.run_cell(base, spec, value, vi, 0)
    return calls


def _counting(events, name, fn):
    def wrapper(*args, **kwargs):
        events.append(name)
        return fn(*args, **kwargs)
    return wrapper


class TestWmmseCallPattern:
    """Per-iteration cost of WMMSE and the power of its precoders, on the
    calls of `los_solver_calls`."""

    @pytest.fixture
    def instances(self, los_solver_calls):
        return los_solver_calls["wmmse"]

    def test_one_eigh_and_one_precoder_per_iteration(self, instances, monkeypatch):
        events = []
        for owner, name in ((np.linalg, "eigh"), (np.linalg, "solve"), (np.linalg, "pinv"),
                            (mu_opt, "_wmmse_precoder"), (mu_opt, "_power_multiplier"),
                            (mu_opt, "sum_rate")):
            monkeypatch.setattr(owner, name, _counting(events, name, getattr(owner, name)))
        kinds = []
        for args in instances:
            events.clear()
            _, trace = mu_opt.wmmse(*args)
            # each iteration starts with its eigendecomposition
            body = "".join({"eigh": "|e", "_power_multiplier": "m", "_wmmse_precoder": "w",
                            "solve": "s", "pinv": "p", "sum_rate": "r"}[e] for e in events)
            iterations = body.split("|")[1:]
            assert body.startswith("|")
            # the last iteration is not in the trace when its rate fell
            assert len(iterations) in (len(trace) - 1, len(trace))
            kinds += iterations
        assert set(kinds) == {"ew", "emw"}

    def test_power_budget_met_exactly(self, instances, monkeypatch):
        # a precoder whose multiplier was searched spends the whole budget
        built = []
        precoder, multiplier = mu_opt._wmmse_precoder, mu_opt._power_multiplier

        def recording_multiplier(*args):
            built.append(None)  # the next precoder's multiplier is > 0
            return multiplier(*args)

        def recording_precoder(*args):
            w = precoder(*args)
            if built and built[-1] is None:
                built[-1] = w
            return w

        monkeypatch.setattr(mu_opt, "_power_multiplier", recording_multiplier)
        monkeypatch.setattr(mu_opt, "_wmmse_precoder", recording_precoder)
        ends = 0
        for h, w0, power, noise_power in instances:
            w, _ = mu_opt.wmmse(h, w0, power, noise_power)
            if any(w is w_mu for w_mu in built):
                ends += 1
                assert float(np.sum(np.abs(w) ** 2)) == pytest.approx(power, rel=1e-9)
            assert float(np.sum(np.abs(w) ** 2)) <= power * (1 + 1e-9)
        assert ends > 0


class TestManifoldCgCallPattern:
    """Objective and gradient evaluations of the CG, counted on the calls of
    `los_solver_calls`, on the same calls stopped after 3 steps and on the
    same calls with one trial step per search. The benchmark's tracer derives
    the CG's `obj_evals`, `grad_evals` and `backtracks` from these counts."""

    def test_one_objective_per_trial_and_one_gradient_per_point(self, los_solver_calls,
                                                                 monkeypatch):
        events = []
        for name in ("neg_sum_rate", "euclidean_grad_f2", "_retract_step"):
            monkeypatch.setattr(mu_opt, name, _counting(events, name, getattr(mu_opt, name)))
        exits = set()
        for args in los_solver_calls["manifold_cg"]:
            for kwargs, backtracks in (({}, _BACKTRACKS), ({"max_iter": 3}, _BACKTRACKS),
                                       ({"grad_tol": 0.0}, 1)):
                monkeypatch.setattr(mu_opt, "_MAX_BACKTRACKS", backtracks)
                events.clear()
                _, trace = mu_opt.manifold_cg(*args, **kwargs)
                exits.add(trace.exit)
                trials = events.count("_retract_step")
                assert events.count("neg_sum_rate") == 1 + trials
                assert events.count("euclidean_grad_f2") == len(trace.objective)
                # the start point's objective and gradient, then per search
                # one retraction and one objective per trial, and a gradient
                # at the accepted point
                assert events[:2] == ["neg_sum_rate", "euclidean_grad_f2"]
                body = "".join({"_retract_step": "t", "neg_sum_rate": "f",
                                "euclidean_grad_f2": "g"}[e] for e in events[2:])
                searches = body.split("g")
                assert searches[-1] == ("" if trace.exit != "line_search"
                                        else "tf" * backtracks)
                assert len(searches) - 1 == len(trace.objective) - 1
                assert all(len(t) >= 2 and t == "tf" * (len(t) // 2) for t in searches[:-1])
        assert exits == {"tol", "max_iter", "line_search"}
