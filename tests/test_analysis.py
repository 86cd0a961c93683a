"""Verification reports: equivalence, far-field invariance, fluctuation checks."""

import csv

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from irsma import analysis, channel, harness, su_opt
from irsma.config import Scenario
from irsma.errors import InvalidParameterError
from irsma.rng import substream

from conftest import rician_row


@pytest.fixture(scope="module")
def scenario():
    return Scenario(irs_num_y=8, irs_num_z=8, master_seed=3)


def _dense_equivalence_gaps(scen, distances, num_seeds, grid_points):
    """Reference for the equivalence report: the distance tensor rebuilt for
    every seed and the co-phased gain evaluated at every grid point."""
    geometry, lam = scen.geometry(), scen.wavelength
    expected = []
    for dist in distances:
        region = scen.replace(bs_distance=float(dist)).region()
        offsets = np.linspace(-region.length / 2, region.length / 2, grid_points)
        points = region.point(offsets)
        t_fpa = su_opt.optimal_single_ma_position(region)
        worst = 0.0
        for s in range(num_seeds):
            rng = substream(scen.master_seed, "equiv", int(dist * 1000), s)
            d_user = rng.uniform(*scen.user_distance_range)
            az = rng.uniform(*scen.user_azimuth_range)
            el = rng.uniform(*scen.user_elevation_range)
            direction = np.array([np.cos(el) * np.cos(az),
                                  np.cos(el) * np.sin(az), np.sin(el)])
            normals = rng.standard_normal((1, 2, geometry.num_elements))
            h_iu = channel._rician_rows(geometry, [d_user], [direction], normals,
                                        scen.rician_factor, scen.pathloss_exponent, lam)[0]
            d = np.linalg.norm(points[:, None, :]
                               - geometry.element_positions()[None, :, :], axis=2)
            gains = (lam / (4 * np.pi)) ** 2 * np.sum(np.abs(h_iu) / d, axis=1) ** 2
            g_fpa = su_opt.gain_closed_form(t_fpa, geometry, h_iu, lam)
            worst = max(worst, abs(float(np.max(gains)) - g_fpa) / g_fpa)
        expected.append(worst)
    return expected


def _dense_screen(points, elements, amps, wavelength):
    """The equivalence screen before its coarse pass: one distance row and one
    screened sum per grid point, and the exact rows of each draw's passes."""
    recip = channel._distance_matrix(points, elements)
    sums = su_opt._grid_product(amps, np.divide(1.0, recip, out=recip).T)
    gains = []
    for amp, col in zip(amps, sums):
        rows = points[col >= (1 - 1e-9) * col.max()]
        d = np.linalg.norm(rows[:, None, :] - elements[None, :, :], axis=2)
        gains.append((wavelength / (4 * np.pi)) ** 2 * np.sum(amp / d, axis=1) ** 2)
    return gains


_UNIT_VECTORS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1)


class TestReportObject:
    def test_add_and_pass(self):
        rep = analysis.Report("demo")
        rep.add("small", 1e-10, 1e-6)
        rep.add("big enough", 5.0, 1.0, ">=")
        assert rep.passed
        rep.add("too big", 2.0, 1.0)
        assert not rep.passed
        text = rep.to_text()
        assert "FAIL" in text and "demo" in text

    def test_csv_export(self, tmp_path):
        rep = analysis.Report("demo")
        rep.add("x", 0.5, 1.0)
        path = tmp_path / "r.csv"
        rep.write_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["check", "passed", "value", "comparison", "threshold"]
        assert rows[1][0] == "x" and rows[1][1] == "1"


class TestSingleMaEquivalence:
    def test_default_distances_pass(self, scenario):
        rep = analysis.verify_single_ma_equivalence(scenario, num_seeds=5)
        assert rep.passed

    def test_degenerate_region_zero_gap(self, scenario):
        assert analysis._worst_equivalence_gap(scenario.replace(region_length=0.0),
                                               2, 3, 1) == 0.0

    def test_equals_per_seed_profile(self):
        scen = Scenario(irs_num_y=5, irs_num_z=4, master_seed=8, num_mas=1)
        distances, num_seeds, grid_points = (1, 2.5, 4), 4, 31
        expected = _dense_equivalence_gaps(scen, distances, num_seeds, grid_points)
        assert [analysis._worst_equivalence_gap(scen, d, num_seeds, grid_points)
                for d in distances] == expected

    @settings(max_examples=100, deadline=None)
    @given(num_y=st.integers(1, 8), num_z=st.integers(1, 8),
           region_length=st.floats(0.0, 1.0), grid_points=st.integers(1, 1001),
           dist=st.floats(0.5, 8.0), num_seeds=st.integers(1, 6),
           rician_factor=st.sampled_from([0.0, 1e6]), seed=st.integers(0, 2 ** 16),
           region_axis=st.one_of(st.just((1.0, 0.0, 0.0)), _UNIT_VECTORS),
           bs_direction=st.one_of(st.just(Scenario().bs_direction), st.tuples(
               st.floats(0.1, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    def test_screen_equals_dense_profile(self, num_y, num_z, region_length, grid_points,
                                         dist, num_seeds, rician_factor, seed,
                                         region_axis, bs_direction):
        # the gap bound is geometric, so it holds on any line: oblique regions
        # and directions, and grids from one point to the battery's 1001
        scen = Scenario(irs_num_y=num_y, irs_num_z=num_z, region_length=region_length,
                        rician_factor=rician_factor, master_seed=seed, num_mas=1,
                        region_axis=region_axis, bs_direction=bs_direction)
        # a segment that reaches the surface plane x = 0 is rejected at load
        try:
            region = scen.replace(bs_distance=dist).region()
        except InvalidParameterError:
            reject()
        # an element on the region makes the gains infinite (and the fixed
        # antenna's gain raise), so the segment keeps 1 mm from every element
        a, b = region.point([-region_length / 2, region_length / 2])
        e, seg = scen.geometry().element_positions() - a, b - a
        t = np.clip(e @ seg / (seg @ seg or 1.0), 0.0, 1.0)
        assume(np.min(np.linalg.norm(e - t[:, None] * seg, axis=1)) > 1e-3)
        assert [analysis._worst_equivalence_gap(scen, dist, num_seeds, grid_points)] == \
            _dense_equivalence_gaps(scen, (dist,), num_seeds, grid_points)

    def test_screen_keeps_mirror_tie(self):
        # a region along y centred on the surface normal, an even grid and equal
        # |h|: the two points next to the centre tie at the best gain up to
        # rounding, which the product and the exact sum may break either way
        scen = Scenario(irs_num_y=7, irs_num_z=5, region_axis=(0.0, 1.0, 0.0),
                        bs_direction=(1.0, 0.0, 0.0), bs_distance=2.0)
        geometry, lam = scen.geometry(), scen.wavelength
        region = scen.region()
        points = region.point(np.linspace(-region.length / 2, region.length / 2, 400))
        elements = geometry.element_positions()
        amps = np.vstack([np.ones(geometry.num_elements),
                          np.full(geometry.num_elements, 3.0)])
        screened = analysis._screened_gains(points, elements, amps, lam)
        d = np.linalg.norm(points[:, None, :] - elements[None, :, :], axis=2)
        for amp, gains in zip(amps, screened):
            dense = (lam / (4 * np.pi)) ** 2 * np.sum(amp / d, axis=1) ** 2
            assert sorted(gains) == sorted(dense[199:201])
            assert np.max(gains) == np.max(dense)

    @pytest.mark.parametrize("size, num_seeds", [(25, 50), (15, 10)])
    def test_battery_screen_builds_few_rows(self, monkeypatch, size, num_seeds):
        # the battery's two checks at all six distances: the coarse pass skips
        # the gaps that cannot hold a draw's best point, and every draw keeps the
        # dense screen's passing rows and gains, bit for bit
        scen = Scenario(irs_num_y=size, irs_num_z=size, num_mas=1)
        geometry, lam = scen.geometry(), scen.wavelength
        elements = geometry.element_positions()
        cases = []
        for dist in (1, 2, 3, 4, 5, 6):
            region = scen.replace(bs_distance=float(dist)).region()
            points = region.point(np.linspace(-region.length / 2, region.length / 2, 1001))
            rngs = [substream(scen.master_seed, "equiv", dist * 1000, s)
                    for s in range(num_seeds)]
            amps = np.abs(channel._draw_users(rngs, scen, geometry))
            cases.append((points, amps, _dense_screen(points, elements, amps, lam)))
        rows, original = [], channel._distance_matrix

        def counting(a, b):
            rows.append(len(a))
            return original(a, b)

        monkeypatch.setattr(channel, "_distance_matrix", counting)
        for points, amps, dense in cases:
            screened = analysis._screened_gains(points, elements, amps, lam)
            assert len(screened) == num_seeds
            for want, got in zip(dense, screened):
                assert got.tobytes() == want.tobytes()
        assert rows and max(rows) <= 128

    def test_deterministic(self, scenario):
        a = analysis._worst_equivalence_gap(scenario, 2, 3, 1001)
        assert analysis._worst_equivalence_gap(scenario, 2, 3, 1001) == a


class TestFarFieldNoGain:
    def test_passes(self, scenario):
        rep = analysis.verify_far_field_no_gain(scenario)
        assert rep.passed

    def test_deterministic(self, scenario):
        a = analysis.verify_far_field_no_gain(scenario)
        b = analysis.verify_far_field_no_gain(scenario)
        assert [c.value for c in a.checks] == [c.value for c in b.checks]


class TestFluctuation:
    def test_far_field_spread_zero(self, scenario):
        lam = scenario.wavelength
        geometry = scenario.geometry()
        region = scenario.region()
        dep = -region.center_array / np.linalg.norm(region.center_array)

        class FarFieldModel:
            def matrix(self, positions):
                return channel.far_field_bs_irs(positions, geometry, [1, 0, 0],
                                                dep, 0.001, lam)

        rng = substream(0, "fluct")
        h_iu = rician_row(rng, geometry, scenario)
        phi = su_opt.random_reflection(rng, geometry.num_elements)
        _, _, (spread,) = analysis.fluctuation_profile(h_iu, (phi,), FarFieldModel(),
                                                       region, resolution=50)
        assert spread == pytest.approx(0.0, abs=1e-8)

    def test_random_phi_spread_exceeds_optimized(self, scenario):
        wins = 0
        total = 20
        scen_mp = scenario.replace(num_users=1, num_paths=8)
        for seed in range(total):
            rng = substream(77, "spreadcmp", seed)
            h_rows, bs_irs = harness.draw_realization(scen_mp, rng)
            region = scenario.region()
            h_iu = h_rows[0]
            phi_rand = su_opt.random_reflection(
                rng, bs_irs.geometry.num_elements)
            grid = su_opt.SamplingGrid.from_region(region, scenario.sample_spacing,
                                                   scenario.min_spacing)
            idx = su_opt.fpa_indices(grid, scenario.num_mas)
            phi_opt, _ = su_opt.bcd_irs(h_iu, bs_irs.matrix(grid.points[idx]),
                                        phi_rand)
            _, _, (s_rand, s_opt) = analysis.fluctuation_profile(
                h_iu, (phi_rand, phi_opt), bs_irs, region, 60)
            wins += s_rand > s_opt
        assert wins > total / 2

    def test_spread_decreases_with_distance_optimized(self, scenario):
        spreads = []
        for d in (1.0, 6.0):
            scen = scenario.replace(bs_distance=d, num_users=1)
            rng = substream(5, "spreaddist", int(d))
            geometry = scen.geometry()
            model = channel.BsIrsModel(geometry, scen.wavelength)
            h_iu = np.ones(geometry.num_elements)
            region = scen.region()
            grid = su_opt.SamplingGrid.from_region(region, scen.sample_spacing,
                                                   scen.min_spacing)
            idx = su_opt.fpa_indices(grid, scen.num_mas)
            phi, _ = su_opt.bcd_irs(h_iu, model.matrix(grid.points[idx]),
                                    su_opt.random_reflection(rng, geometry.num_elements))
            _, _, (spread,) = analysis.fluctuation_profile(h_iu, (phi,), model, region, 60)
            spreads.append(spread)
        assert spreads[0] > spreads[1]


class TestFluctuationMonotonicity:
    def test_passes(self, scenario):
        rep = analysis.verify_fluctuation_monotonicity(scenario)
        assert rep.passed

    def test_equal_points_zero(self, scenario):
        lam = scenario.wavelength
        g = scenario.geometry()
        t = np.array([3.0, 0, 0])
        assert su_opt.gain_difference(t, t, g, np.ones(g.num_elements), lam) == 0.0


def test_verify_all_passes(scenario):
    reports = analysis.verify_all(scenario)
    assert len(reports) == 4
    assert all(r.passed for r in reports)
