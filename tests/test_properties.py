"""Property tests over small random instances.

The outer loops and whole cells run on K = 1-4 users (K > N included), N =
1-3 antennas, a 4x4 surface, 0-8 scattered paths, and transmit regions down
to the shortest length that still holds the fixed layout. The inner solvers
(WMMSE, the manifold CG and the single-user BCD) run on their own on random
channels with K = 1-6 users, N = 1-5 antennas and M = 4-64 elements."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irsma import harness, mu_opt, su_opt
from irsma.config import Scenario
from irsma.errors import InfeasibleSpacingError
from irsma.rng import substream

HALF_WAVELENGTH = Scenario().wavelength / 2  # the default minimum spacing
TRACE_RTOL = 1e-9
ORDER_TOL = 1e-9


@st.composite
def instances(draw):
    num_mas = draw(st.integers(1, 3))
    # the fixed layout spans (N - 1) half wavelengths; draws a little shorter
    # are rejected at load and skipped. Whole numbers of half wavelengths are
    # the shipped configs' kind of region.
    edge = (num_mas - 1) * HALF_WAVELENGTH
    length = draw(st.one_of(
        st.floats(max(edge - 0.02, 0.0), edge + 0.3),
        st.integers(max(num_mas - 2, 0), num_mas + 9).map(lambda n: n * HALF_WAVELENGTH)))
    return Scenario(irs_num_y=4, irs_num_z=4, num_users=draw(st.integers(1, 4)),
                    num_mas=num_mas, num_paths=draw(st.integers(0, 8)),
                    region_length=length, bs_distance=draw(st.floats(2.0, 8.0)),
                    master_seed=draw(st.integers(0, 2 ** 32 - 1)))


def _non_decreasing(trace) -> bool:
    t = np.asarray(trace)
    return bool(np.all(np.diff(t) >= -TRACE_RTOL * np.abs(t[:-1])))


def _holds_layout(grid, num_mas) -> bool:
    try:
        su_opt.fpa_indices(grid, num_mas)
    except InfeasibleSpacingError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@given(num_mas=st.integers(1, 4), step=st.sampled_from([10, 7, 3, 2, 1]), data=st.data())
def test_coarse_grid_is_a_stride_of_the_fine_grid(num_mas, step, data):
    """AS's coarse grid is every k-th fine point, centred, for regions from a
    point to 1 m and fine steps of a tenth to a whole wavelength (k = 5 to 1)."""
    sample_spacing = Scenario().wavelength / step
    gap = su_opt._index_gap(HALF_WAVELENGTH, sample_spacing)
    # (N - 1) gap + 1 fine steps: for N >= 2 and the default tenth-wavelength
    # step (gap 5), the shortest region whose fine grid holds the fixed layout
    shortest = ((num_mas - 1) * gap + 1) * sample_spacing
    length = data.draw(st.one_of(st.just(0.0), st.just(shortest), st.floats(0.0, 1.0)))
    scenario = Scenario(num_mas=num_mas, region_length=length, sample_spacing=sample_spacing)
    fine, coarse, on_fine, _ = harness._shared(scenario)
    k = fine.min_gap
    assert {p.tobytes() for p in coarse.points} <= {p.tobytes() for p in fine.points}
    assert coarse.points.tobytes() == fine.points[on_fine].tobytes()
    assert np.all(np.diff(on_fine) == k) and len(on_fine) == (fine.num_points - 1) // k + 1
    assert abs(on_fine[0] - (fine.num_points - 1 - on_fine[-1])) <= 1  # centred
    # ao_multi_user's check: the coarse step keeps antennas min_spacing apart
    assert coarse.min_gap == 1 and coarse.spacing == k * fine.spacing
    assert coarse.spacing >= scenario.min_spacing * (1 - 1e-9)
    assert su_opt._index_gap(scenario.min_spacing, coarse.spacing) == 1
    assert _holds_layout(coarse, num_mas) == _holds_layout(fine, num_mas)
    if length == shortest:
        assert _holds_layout(fine, num_mas)


@settings(max_examples=100, deadline=None)
@given(scenario=instances())
def test_solvers_keep_their_invariants(scenario):
    rng = substream(scenario.master_seed, "property")
    context = harness.cell_context(scenario, rng)
    grid, columns = context.fine, context.fine_columns
    try:
        idx0 = su_opt.fpa_indices(grid, scenario.num_mas)
    except InfeasibleSpacingError:
        assume(False)
    h_iu = context.h_iu
    phi0 = su_opt.random_reflection(rng, h_iu.shape[1])
    power, noise = scenario.transmit_power, scenario.noise_power
    mu = mu_opt.ao_multi_user(h_iu, columns, grid, phi0, idx0, power, noise,
                              min_spacing=scenario.min_spacing)
    su = su_opt.ao_single_user(h_iu[0], columns, grid, phi0, idx0, power, noise)
    for sol in (mu, su):
        assert _non_decreasing(sol.trace)
        np.testing.assert_allclose(np.abs(sol.phi), 1.0, rtol=0, atol=1e-9)
        assert np.all(np.diff(np.sort(sol.indices)) >= grid.min_gap)
    assert np.sum(np.abs(mu.w) ** 2) <= power * (1 + 1e-6)
    assert np.sum(np.abs(su.beamformer) ** 2) <= 1 + 1e-6


@st.composite
def channels(draw):
    """Gaussian user-surface rows h_iu (K, M) and surface-BS matrix h_bi (M,
    N), a random precoder (N, K) and random unit-modulus phases (M,); the
    channel scale spans four decades."""
    k, n, m = draw(st.integers(1, 6)), draw(st.integers(1, 5)), draw(st.integers(4, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** draw(st.floats(-2.0, 2.0))

    def gaussian(*shape):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    return (gaussian(k, m), gaussian(m, n), gaussian(n, k) / scale,
            np.exp(1j * rng.uniform(0, 2 * np.pi, m)))


@settings(max_examples=100, deadline=None)
@given(channel=channels(), power=st.floats(0.1, 100.0), noise=st.floats(1e-3, 10.0))
def test_wmmse_keeps_its_invariants(channel, power, noise):
    h_iu, h_bi, _, phi = channel
    h = (h_iu.conj() * phi) @ h_bi  # cascaded rows (K, N)
    w0 = h.conj().T / np.linalg.norm(h, axis=1) * np.sqrt(power / h.shape[0])
    w, trace = mu_opt.wmmse(h, w0, power, noise)
    assert np.all(np.diff(trace) >= 0)
    assert np.sum(np.abs(w) ** 2) <= power * (1 + 1e-6)


@settings(max_examples=100, deadline=None)
@given(channel=channels(), noise=st.floats(1e-3, 10.0), max_iter=st.integers(1, 60))
def test_manifold_cg_keeps_its_invariants(channel, noise, max_iter):
    h_iu, h_bi, w, phi0 = channel
    phi, trace = mu_opt.manifold_cg(h_iu, h_bi, w, phi0, noise, max_iter=max_iter)
    assert np.all(np.diff(trace.objective) <= 0)
    np.testing.assert_allclose(np.abs(phi), 1.0, rtol=0, atol=1e-9)
    steps, converged = len(trace.objective) - 1, trace.grad_norm[-1] <= 1e-6
    assert len(trace.grad_norm) == steps + 1 and steps <= max_iter
    assert trace.exit == ("tol" if converged else
                          "max_iter" if steps == max_iter else "line_search")


@settings(max_examples=100, deadline=None)
@given(channel=channels())
def test_bcd_irs_trace_non_decreasing(channel):
    h_iu, h_bi, _, phi0 = channel
    phi, trace = su_opt.bcd_irs(h_iu[0], h_bi, phi0)
    assert _non_decreasing(trace)
    np.testing.assert_allclose(np.abs(phi), 1.0, rtol=0, atol=1e-9)


@settings(max_examples=100, deadline=None)
@given(scenario=instances())
def test_cell_orderings(scenario):
    spec = harness.SweepSpec(parameter="num_paths", values=(scenario.num_paths,),
                             realizations=1, seed=scenario.master_seed)
    try:
        result = harness.run_sweep(spec, scenario)
    except InfeasibleSpacingError:
        assume(False)
    assert result.failed == []
    rate = {r.scheme: r.rate for r in result.records}
    assert rate[harness.MA_RPS] >= rate[harness.FPA_RPS] - ORDER_TOL
    assert rate[harness.PROPOSED] >= max(rate[harness.FPA], rate[harness.AS]) - ORDER_TOL


def test_proposed_below_as_off_grid():
    # PROPOSED ended below AS here while AS's grid was rounded on its own: on a
    # 0.2 m region that grid missed the fine points, so PROPOSED's warm start
    # from AS moved the antennas
    scenario = Scenario(irs_num_y=4, irs_num_z=4, num_users=2, num_mas=2,
                        region_length=0.2, bs_distance=3.0)
    spec = harness.SweepSpec(parameter="num_paths", values=(0,), realizations=1, seed=5)
    rate = {r.scheme: r.rate for r in harness.run_sweep(spec, scenario).records}
    assert rate[harness.PROPOSED] >= rate[harness.AS] - ORDER_TOL
