"""Single-user SNR maximization: closed forms, BCD, placement DP, outer loop."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irsma import channel, harness, su_opt
from irsma.config import (IrsGeometry, Scenario, TransmitRegion, load_config,
                          scenario_from_dict)
from irsma.errors import (DegenerateChannelError, InfeasibleSpacingError,
                          InvalidParameterError)
from irsma.rng import substream

from conftest import rician_row


def _random_channels(rng, m, n):
    h_iu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    h_bi = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return h_iu, h_bi


class TestSnrAndMrt:
    def test_zero_user_channel(self):
        assert su_opt.snr(np.zeros(2), np.ones(2), np.ones((2, 1)),
                          np.ones(1), 1.0, 1.0) == 0.0

    def test_unit_cascade(self):
        val = su_opt.snr(np.ones(1), np.ones(1), np.ones((1, 1)), np.ones(1),
                         10.0, 1.0)
        assert val == pytest.approx(10.0, rel=1e-12)

    def test_global_phase_invariance(self, rng):
        h_iu, h_bi = _random_channels(rng, 6, 3)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = w / np.linalg.norm(w)
        a = su_opt.snr(h_iu, phi, h_bi, w, 2.0, 1.0)
        b = su_opt.snr(h_iu, phi * np.exp(1.1j), h_bi, w, 2.0, 1.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_mrt_beats_random_probes(self, rng):
        h_iu, h_bi = _random_channels(rng, 6, 4)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 6))
        w = su_opt.mrt(h_iu, phi, h_bi)
        best = su_opt.snr(h_iu, phi, h_bi, w, 1.0, 1.0)
        for _ in range(100):
            probe = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            probe /= np.linalg.norm(probe)
            assert su_opt.snr(h_iu, phi, h_bi, probe, 1.0, 1.0) <= best + 1e-12

    def test_mrt_hand_case(self):
        # cascaded row [1, j]: w must align with its conjugate, |row w| = sqrt(2)
        h_iu = np.array([1.0])
        phi = np.array([1.0 + 0j])
        h_bi = np.array([[1.0, 1j]])
        w = su_opt.mrt(h_iu, phi, h_bi)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-10)
        row = channel.cascaded_row(h_iu, phi, h_bi)
        assert abs(row @ w) == pytest.approx(np.sqrt(2), rel=1e-12)

    def test_mrt_zero_channel(self):
        with pytest.raises(DegenerateChannelError):
            su_opt.mrt(np.zeros(2), np.ones(2), np.ones((2, 2)))


class TestOptimalPhase:
    def test_matches_closed_form_gain(self, small_geometry, rng):
        lam = 0.06
        t = np.array([2.0, 0.3, -0.2])
        h_bi = channel.nusw_los_matrix(t, small_geometry, lam)[:, 0]
        h_iu = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phi = np.exp(1j * (np.angle(h_iu) - np.angle(h_bi)))  # co-phases both hops
        cascade = channel.cascaded_row(h_iu, phi, h_bi[:, None])[0]
        assert abs(cascade) ** 2 == pytest.approx(
            su_opt.gain_closed_form(t, small_geometry, h_iu, lam), rel=1e-10)


class TestGainForms:
    def test_single_element(self):
        g = IrsGeometry(1, 1, 0.0)
        lam = 0.06
        val = su_opt.gain_closed_form([2.0, 0, 0], g, np.array([0.7]), lam)
        assert val == pytest.approx((lam / (4 * np.pi)) ** 2 * 0.49 / 4.0, rel=1e-12)

    def test_stacked_rows_equal_row_calls(self, small_geometry):
        rng = np.random.default_rng(3)
        rows = rng.normal(size=(9, 16)) + 1j * rng.normal(size=(9, 16))
        t = [1.7, 0.2, -0.1]
        stacked = su_opt.gain_closed_form(t, small_geometry, rows, 0.06)
        singles = [su_opt.gain_closed_form(t, small_geometry, r, 0.06) for r in rows]
        assert all(type(g) is float for g in singles)
        assert stacked.shape == (9,) and stacked.tolist() == singles

    def test_rows_squared_as_scalars(self):
        # (sum |h|/D)^2 of this row is 6.831211651086144e-06 as a scalar ** 2
        # (libm pow) but ...145e-06 as an array ** 2 (a product); the
        # equivalence reports carry the scalar square
        scenario = Scenario(master_seed=1000, irs_num_y=25, irs_num_z=25)
        geometry = scenario.geometry()
        amps = np.abs(channel._draw_users([substream(1000, "equiv", 6000, s)
                                           for s in range(10)], scenario, geometry))
        t = su_opt.optimal_single_ma_position(scenario.replace(bs_distance=6.0).region())
        gains = su_opt.gain_closed_form(t, geometry, amps, scenario.wavelength)
        assert gains[9] == 1.5551755164024864e-10
        assert su_opt.gain_closed_form(t, geometry, amps[9], scenario.wavelength) == gains[9]

    def test_gain_decreasing_along_axis(self, small_geometry):
        lam = 0.06
        h_iu = np.ones(16)
        gains = [su_opt.gain_closed_form([x, 0.5, 0.2], small_geometry, h_iu, lam)
                 for x in np.linspace(1.0, 6.0, 20)]
        assert np.all(np.diff(gains) < 0)


class TestOptimalSinglePosition:
    def test_x_parallel_closed_form(self):
        c = 4 * np.sqrt(2)
        region = TransmitRegion((c, c, 0.0), (1.0, 0.0, 0.0), 0.6)
        t = su_opt.optimal_single_ma_position(region)
        np.testing.assert_allclose(t, [c - 0.3, c, 0.0], rtol=1e-12)

    def test_symmetric_region_midpoint(self):
        region = TransmitRegion((0.0, 3.0, 0.0), (1.0, 0.0, 0.0), 0.6)
        t = su_opt.optimal_single_ma_position(region)
        np.testing.assert_allclose(t, [0.0, 3.0, 0.0], atol=1e-12)

    def test_matches_grid_search(self, rng):
        for _ in range(10):
            center = rng.uniform(-5, 5, 3)
            axis = rng.standard_normal(3)
            region = TransmitRegion(tuple(center), tuple(axis), 0.6)
            t = su_opt.optimal_single_ma_position(region)
            offsets = np.linspace(-0.3, 0.3, 10_001)
            pts = region.point(offsets)
            brute = pts[np.argmin(np.linalg.norm(pts, axis=1))]
            assert np.linalg.norm(t) <= np.linalg.norm(brute) + 1e-9


class TestGainDifference:
    def test_equal_points_zero(self, small_geometry):
        t = np.array([2.0, 0, 0])
        assert su_opt.gain_difference(t, t, small_geometry, np.ones(16), 0.06) == 0.0

    def test_ordering_enforced(self, small_geometry):
        with pytest.raises(InvalidParameterError):
            su_opt.gain_difference([3.0, 0, 0], [2.0, 0, 0], small_geometry,
                                   np.ones(16), 0.06)

    def test_grows_with_surface_size(self):
        lam = 0.0599584916
        t1, t2 = np.array([0.7, 0, 0]), np.array([1.3, 0, 0])
        diffs = []
        for m in (15, 20, 25):
            g = IrsGeometry(m, m, lam / 2)
            diffs.append(su_opt.gain_difference(t1, t2, g, np.ones(g.num_elements), lam))
        assert diffs[0] < diffs[1] < diffs[2]

    def test_shrinks_with_link_distance(self):
        lam = 0.0599584916
        g = IrsGeometry(15, 15, lam / 2)
        h = np.ones(g.num_elements)
        diffs = []
        for d in (1.0, 3.0, 6.0):
            t1 = np.array([d - 0.3, 0, 0])
            t2 = np.array([d + 0.3, 0, 0])
            diffs.append(su_opt.gain_difference(t1, t2, g, h, lam))
        assert diffs[0] > diffs[1] > diffs[2]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _reference_fpa_indices(grid, num_mas, min_spacing):
    """The fixed layout with its gap rounded from `min_spacing` (at least
    `grid.min_gap`); None when it does not fit."""
    gap = max(grid.min_gap, int(round(min_spacing / grid.spacing)))
    span = (num_mas - 1) * gap
    if span + 1 > grid.num_points:
        return None
    start = int(round((grid.num_points - 1 - span) / 2))
    start = min(max(start, 0), grid.num_points - 1 - span)
    return [start + n * gap for n in range(num_mas)]


class TestSamplingGrid:
    def test_uniform_and_sorted(self):
        region = TransmitRegion((5.0, 5.0, 0.0), (1.0, 0.0, 0.0), 0.6)
        grid = su_opt.SamplingGrid.from_region(region, 0.006, 0.03)
        assert grid.num_points == 100
        offsets = (grid.points - region.center_array) @ region.axis_array
        steps = np.diff(offsets)
        np.testing.assert_allclose(steps, steps[0], rtol=1e-9)
        assert grid.min_gap == 5

    def test_zero_length_region_is_one_point(self):
        region = TransmitRegion((5.0, 5.0, 0.0), (1.0, 0.0, 0.0), 0.0)
        grid = su_opt.SamplingGrid.from_region(region, 0.006, 0.03)
        assert grid.num_points == 1
        np.testing.assert_array_equal(grid.points, [region.center_array])
        assert grid.spacing == 0.006
        assert grid.min_gap == 5
        assert su_opt.fpa_indices(grid, 1) == [0]
        with pytest.raises(InfeasibleSpacingError):
            su_opt.fpa_indices(grid, 2)

    def test_unfit_layout_names_count_gap_and_grid_size(self):
        # 20 antennas span 95 of the 100 points; a 21st would need a 101st point
        region = TransmitRegion((5.0, 5.0, 0.0), (1.0, 0.0, 0.0), 0.6)
        grid = su_opt.SamplingGrid.from_region(region, 0.006, 0.03)
        assert su_opt.fpa_indices(grid, 20) == list(range(2, 100, 5))
        with pytest.raises(InfeasibleSpacingError, match=(
                r"^21 antennas 5 grid steps apart do not fit on the 100-point grid$")):
            su_opt.fpa_indices(grid, 21)

    @pytest.mark.parametrize("length", [5e-324, 1e-300, 0.004])
    def test_short_region_is_one_point_with_the_requested_step(self, length):
        # 5e-324 / 1 as the step made min_spacing / step overflow
        region = TransmitRegion((5.0, 5.0, 0.0), (1.0, 0.0, 0.0), length)
        grid = su_opt.SamplingGrid.from_region(region, 0.006, 0.03)
        np.testing.assert_array_equal(grid.points, [region.center_array])
        assert (grid.spacing, grid.min_gap) == (0.006, 5)

    def test_min_gap_guarantees_continuous_spacing(self):
        region = TransmitRegion((5.0, 5.0, 0.0), (1.0, 0.0, 0.0), 0.6)
        grid = su_opt.SamplingGrid.from_region(region, 0.007, 0.03)
        d = np.linalg.norm(grid.points[grid.min_gap] - grid.points[0])
        assert d >= 0.03 - 1e-12

    def test_fpa_layout_on_grid(self):
        s = Scenario()
        region = s.region()
        grid = su_opt.SamplingGrid.from_region(region, s.sample_spacing, s.min_spacing)
        idx = su_opt.fpa_indices(grid, s.num_mas)
        # symmetric about the region center with spacing >= min_spacing
        offs = (grid.points[idx] - region.center_array) @ region.axis_array
        np.testing.assert_allclose(offs + offs[::-1], 0.0, atol=1e-9)
        assert np.all(np.diff(offs) >= s.min_spacing - 1e-9)

    def test_fpa_matches_rounded_spacing_layout_on_shipped_configs(self):
        # the fine grid and AS's coarse grid of every swept value of every config
        paths = sorted(CONFIGS.glob("*.yaml"))
        checked = 0
        for path in paths:
            data = load_config(path)
            base = scenario_from_dict(data.get("scenario", {}))
            sweep = data.get("sweep")
            scenarios = ([base] if sweep is None else
                         [base.replace(**{harness.SWEEPABLE[sweep["parameter"]]: v})
                          for v in sweep["values"]])
            for s in scenarios:
                for grid in harness._shared(s)[:2]:
                    want = _reference_fpa_indices(grid, s.num_mas, s.min_spacing)
                    if want is None:
                        with pytest.raises(InfeasibleSpacingError):
                            su_opt.fpa_indices(grid, s.num_mas)
                    else:
                        assert su_opt.fpa_indices(grid, s.num_mas) == want
                    checked += 1
        assert paths and checked >= 2 * len(paths)

    def test_bad_spacing(self):
        region = TransmitRegion((5.0, 0.0, 0.0))
        with pytest.raises(InvalidParameterError):
            su_opt.SamplingGrid.from_region(region, 0.0, 0.03)


class TestScenario:
    def test_negative_region_length_rejected(self):
        with pytest.raises(InvalidParameterError, match="region length"):
            Scenario(region_length=-0.1)
        with pytest.raises(InvalidParameterError, match="region length"):
            Scenario().replace(region_length=-1e-9)
        assert Scenario(region_length=0.0).region().length == 0.0

    @pytest.mark.parametrize("distances", [(-50.0, -30.0), (0.0, 0.0), (0.0, 30.0),
                                           (30.0, -1.0)])
    def test_user_distances_must_be_positive(self, distances):
        with pytest.raises(InvalidParameterError, match="user distances must be positive"):
            Scenario(user_distance_range=distances)

    @pytest.mark.parametrize("field, value", [
        ("rician_factor", np.inf), ("bs_distance", np.nan), ("transmit_power", np.inf),
        ("min_spacing", np.inf), ("user_distance_range", (30.0, np.inf)),
        ("bs_direction", (np.nan, 1.0, 0.0)), ("scatterer_box_size", (1.0, -np.inf, 1.0))])
    def test_non_finite_entries_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
            Scenario(**{field: value})

    @pytest.mark.parametrize("fields", [
        dict(bs_direction=(1.0, 0.0, 0.0), bs_distance=0.3),  # one end at x = 0
        dict(bs_direction=(-1.0, 0.0, 0.0), bs_distance=5.0),
        dict(bs_direction=(0.0, 1.0, 0.0), bs_distance=5.0, region_length=0.0),
        dict(bs_distance=0.2)])
    def test_region_must_lie_in_front_of_the_surface(self, fields):
        with pytest.raises(InvalidParameterError, match="in front of the surface"):
            Scenario(**fields)
        with pytest.raises(InvalidParameterError, match="in front of the surface"):
            Scenario().replace(**fields)

    def test_region_just_in_front_of_the_surface_loads(self):
        scenario = Scenario(bs_direction=(1.0, 0.0, 0.0), bs_distance=0.3 + 1e-9)
        assert scenario.region().point(-0.3)[0] > 0

    def test_surface_checked_at_load(self):
        with pytest.raises(InvalidParameterError, match="element counts must be positive"):
            Scenario(irs_num_y=0)
        with pytest.raises(InvalidParameterError, match="element counts must be positive"):
            Scenario().replace(irs_num_z=-1)

    @pytest.mark.parametrize("field", ["num_mas", "num_users", "num_paths", "master_seed",
                                       "irs_num_y", "irs_num_z"])
    def test_integer_fields_reject_fractions(self, field):
        with pytest.raises(InvalidParameterError, match=f"{field} must be an integer"):
            Scenario(**{field: 2.5})
        assert type(getattr(Scenario(**{field: 2.0}), field)) is int

    def test_yaml_numbers_take_the_field_type(self):
        data = yaml.safe_load("num_mas: 2.0\nirs_num_y: 5.0\nbs_distance: 8\nnum_paths: 3\n")
        scenario = scenario_from_dict(data)
        assert scenario == Scenario(num_mas=2, irs_num_y=5, bs_distance=8.0, num_paths=3)
        assert [type(getattr(scenario, k)) for k in data] == [int, int, float, int]

    def test_yaml_lists_become_tuples(self):
        data = yaml.safe_load(
            "region_axis: [0.0, 1.0, 0.0]\n"
            "bs_direction: [1.0, 0.0, 0.0]\n"
            "user_distance_range: [20.0, 40.0]\n"
            "user_azimuth_range: [-0.5, 0.5]\n"
            "user_elevation_range: [-0.25, 0.25]\n"
            "scatterer_box_size: [1.0, 2.0, 3.0]\n"
            "num_paths: 2\n")
        as_tuples = dict(region_axis=(0.0, 1.0, 0.0), bs_direction=(1.0, 0.0, 0.0),
                         user_distance_range=(20.0, 40.0), user_azimuth_range=(-0.5, 0.5),
                         user_elevation_range=(-0.25, 0.25),
                         scatterer_box_size=(1.0, 2.0, 3.0), num_paths=2)
        assert sum(isinstance(v, list) for v in data.values()) == 6
        scenario = scenario_from_dict(data)
        assert scenario == Scenario(**as_tuples) == scenario_from_dict(as_tuples)
        for key in as_tuples:
            assert type(getattr(scenario, key)) is type(as_tuples[key])
        hash(scenario)  # every field hashable, as a frozen dataclass needs


class TestGraphPositionSelect:
    def test_single_antenna_argmax(self):
        assert su_opt.graph_position_select([1.0, 5.0, 3.0], 1, 1) == [1]

    def test_single_antenna_tie_lowest_index(self):
        assert su_opt.graph_position_select([2.0, 5.0, 5.0], 1, 1) == [1]

    def test_hand_instance(self):
        idx = su_opt.graph_position_select([5.0, 1.0, 4.0, 1.0, 3.0], 2, 2)
        assert idx == [0, 2]
        # spec-derived alternative indexing note: best value is 9 either way
        assert sum([5.0, 1.0, 4.0, 1.0, 3.0][i] for i in idx) == 9.0

    def test_infeasible(self):
        with pytest.raises(InfeasibleSpacingError):
            su_opt.graph_position_select([1.0, 2.0, 3.0], 2, 3)

    def test_brute_force_200_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            num_points = int(rng.integers(4, 26))
            num_select = int(rng.integers(1, 5))
            min_gap = int(rng.integers(1, 4))
            if (num_select - 1) * min_gap + 1 > num_points:
                continue
            w = rng.uniform(0, 10, num_points)
            got = su_opt.graph_position_select(w, num_select, min_gap)
            best = max(
                (c for c in itertools.combinations(range(num_points), num_select)
                 if all(b - a >= min_gap for a, b in zip(c, c[1:]))),
                key=lambda c: sum(w[i] for i in c))
            assert sum(w[i] for i in got) == pytest.approx(
                sum(w[i] for i in best), rel=1e-12)

    def test_equals_prefix_loop_reference(self):
        # reference: the dynamic program with a Python prefix-argmax loop
        def reference(w, num_select, min_gap):
            w = np.asarray(w, dtype=float)
            num_points = len(w)
            value = w.copy()
            preds = []
            for _ in range(1, num_select):
                pref_val = np.maximum.accumulate(value)
                pref_idx = np.zeros(num_points, dtype=int)
                best, best_i = value[0], 0
                for l in range(num_points):
                    if value[l] > best:
                        best, best_i = value[l], l
                    pref_idx[l] = best_i
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

        rng = np.random.default_rng(5)
        for _ in range(1000):
            num_points = int(rng.integers(2, 30))
            num_select = int(rng.integers(1, 6))
            min_gap = int(rng.integers(1, 5))
            if (num_select - 1) * min_gap + 1 > num_points:
                continue
            w = rng.integers(0, 4, num_points).astype(float)  # many ties
            w[:int(rng.integers(0, 3))] = -np.inf
            assert su_opt.graph_position_select(w, num_select, min_gap) == \
                reference(w, num_select, min_gap)


class TestBcd:
    def test_single_element_invariant(self):
        phi0 = np.exp(0.3j)
        phi, trace = su_opt.bcd_irs(np.array([1.0]), np.array([[1.0]]),
                                    np.array([phi0]))
        assert phi[0] == pytest.approx(phi0, abs=1e-12)

    def test_two_element_cophase(self):
        # rows g = [1, j]: one sweep must co-phase them -> objective 4
        h_iu = np.array([1.0, 1.0])
        h_bi = np.array([[1.0], [1j]])
        phi, trace = su_opt.bcd_irs(h_iu, h_bi, np.array([1.0 + 0j, 1.0 + 0j]))
        assert trace[-1] == pytest.approx(4.0, rel=1e-10)

    def test_monotone_on_random_instances(self, rng):
        for _ in range(100):
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            h_iu = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            h_bi = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            phi0 = np.exp(1j * rng.uniform(0, 2 * np.pi, m))
            _, trace = su_opt.bcd_irs(h_iu, h_bi, phi0)
            assert np.all(np.diff(trace) >= -1e-10)

    def test_unit_modulus_output(self, rng):
        h_iu = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        h_bi = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        phi, _ = su_opt.bcd_irs(h_iu, h_bi, np.exp(1j * rng.uniform(0, 7, 6)))
        np.testing.assert_allclose(np.abs(phi), 1.0, atol=1e-12)

    @pytest.mark.parametrize("h_iu_shape, h_bi_shape, phi_len", [
        ((5,), (5,), 5),        # 1-D h_bi would broadcast the rows to (M, M)
        ((5,), (4, 2), 5),      # h_bi rows != len(h_iu)
        ((5,), (5, 2, 1), 5),   # 3-D h_bi
        ((5,), (5, 2), 4),      # phi_init too short
        ((1, 5), (5, 2), 5),    # 2-D h_iu
    ])
    def test_bad_shapes_rejected(self, rng, h_iu_shape, h_bi_shape, phi_len):
        h_iu = rng.standard_normal(h_iu_shape) + 0j
        h_bi = rng.standard_normal(h_bi_shape) + 0j
        with pytest.raises(InvalidParameterError):
            su_opt.bcd_irs(h_iu, h_bi, np.ones(phi_len, dtype=complex))

    def test_trace_ends_at_objective_of_returned_phases(self, rng, monkeypatch):
        # the trace is kept by increments; check it against ||phi @ g||^2
        # after one sweep, also from a start that is not unit-modulus
        monkeypatch.setattr(su_opt, "_BCD_MAX_SWEEPS", 1)
        h_iu, h_bi = _random_channels(rng, 12, 3)
        g = h_iu.conj()[:, None] * h_bi
        for phi0 in (np.exp(1j * rng.uniform(0, 2 * np.pi, 12)),
                     rng.uniform(0.2, 1.8, 12) * np.exp(1j * rng.uniform(0, 7, 12))):
            phi, trace = su_opt.bcd_irs(h_iu, h_bi, phi0)
            assert trace[0] == pytest.approx(np.linalg.norm(phi0 @ g) ** 2, rel=1e-12)
            assert trace[-1] == pytest.approx(np.linalg.norm(phi @ g) ** 2, rel=1e-12)

    def test_flat_elements_keep_their_phase(self, rng):
        # with one element, or one nonzero row, the objective does not depend
        # on that element's phase: the update must not move it
        phi1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 1))
        h_iu, h_bi = _random_channels(rng, 1, 4)
        phi, trace = su_opt.bcd_irs(h_iu, h_bi, phi1)
        np.testing.assert_array_equal(phi, phi1)
        assert len(trace) == 2 and trace[1] == trace[0]
        h_iu, h_bi = _random_channels(rng, 5, 3)
        h_iu[[0, 1, 3, 4]] = 0
        phi5 = np.exp(1j * rng.uniform(0, 2 * np.pi, 5))
        phi, _ = su_opt.bcd_irs(h_iu, h_bi, phi5)
        np.testing.assert_array_equal(phi, phi5)


def _reference_bcd_irs(h_iu, h_bi, phi_init, tol=1e-3, max_sweeps=100):
    """The element loop on numpy vectors: alpha and the objective are rebuilt
    at every update. Returns (phi, trace, sweeps)."""
    h_iu = np.asarray(h_iu)
    h_bi = np.atleast_2d(np.asarray(h_bi))
    phi = np.asarray(phi_init, dtype=complex).copy()
    g1 = h_iu.conj()[:, None] * h_bi
    total = phi @ g1
    trace = [float(np.linalg.norm(total) ** 2)]
    sweeps = 0
    for _ in range(max_sweeps):
        sweeps += 1
        sweep_start = trace[-1]
        for m in range(len(phi)):
            alpha = total - phi[m] * g1[m]
            inner = alpha @ g1[m].conj()
            if abs(inner) > 0:
                phi[m] = np.exp(1j * np.angle(inner))
            total = alpha + phi[m] * g1[m]
            trace.append(float(np.linalg.norm(total) ** 2))
        if trace[-1] - sweep_start <= tol * max(abs(sweep_start), 1e-300):
            break
    return phi, trace, sweeps


def _scalar_bcd_irs(h_iu, h_bi, phi_init, max_sweeps=100):
    """`bcd_irs`'s Python-scalar element loop written plainly: rows looked up
    by index, each inner product summed from a list comprehension. The same
    floating-point operations in the same order, so `bcd_irs` must match it
    bit for bit. Returns (phi, trace)."""
    g = h_iu.conj()[:, None] * h_bi
    norms = np.sum(np.abs(g) ** 2, axis=1).tolist()
    rows, rows_conj = g.tolist(), g.conj().tolist()
    total_vec = np.asarray(phi_init, dtype=complex) @ g
    value = float(np.linalg.norm(total_vec) ** 2)
    total, phases = total_vec.tolist(), np.asarray(phi_init, dtype=complex).tolist()
    trace = [value]
    for _ in range(max_sweeps):
        sweep_start = value
        for m in range(len(phases)):
            p = phases[m]
            inner = sum([t * c for t, c in zip(total, rows_conj[m])]) - p * norms[m]
            mag = abs(inner)
            if mag > 1e-12 * norms[m]:
                q = inner / mag
                step = q - p
                total = [t + step * x for t, x in zip(total, rows[m])]
                phases[m] = q
                value += (2 * (mag - (p.conjugate() * inner).real)
                          + (1 - abs(p) ** 2) * norms[m])
            trace.append(value)
        if value - sweep_start <= 1e-3 * max(abs(sweep_start), 1e-300):
            break
    return np.array(phases, dtype=complex), trace


def _random_bcd_instances(count=240):
    """Every M in 1..40, each with six of N in 1..8; a third with no zero
    rows, a third with zero user entries and a third with zero BS rows. Then
    N in 9..16 and rows of length 0 (an (M, 0) h_bi), each at three M."""
    rng = np.random.default_rng(606)
    for i in range(count):
        m, n = 1 + i % 40, 1 + (i // 40 + i) % 8
        h_iu, h_bi = _random_channels(rng, m, n)
        if i % 3 == 1:
            h_iu[rng.random(m) < 0.5] = 0
        elif i % 3 == 2:
            h_bi[rng.random(m) < 0.5] = 0
        yield h_iu, h_bi, np.exp(1j * rng.uniform(0, 2 * np.pi, m))
    for n in (*range(9, 17), 0):
        for m in (1, 7, 30):
            yield *_random_channels(rng, m, n), np.exp(1j * rng.uniform(0, 2 * np.pi, m))


def _real_bcd_instances(count=160):
    """Real channels and starting phases of +-1, every M in 1..40 and every N
    in 1..16: products of real parts carry signed zeros in their imaginary
    parts. Half the instances pass float arrays, half complex ones."""
    rng = np.random.default_rng(909)
    for i in range(count):
        m, n = 1 + i % 40, 1 + i % 16
        h_iu, h_bi = rng.standard_normal(m), rng.standard_normal((m, n))
        if i % 2:
            h_iu, h_bi = h_iu + 0j, h_bi + 0j
        yield h_iu, h_bi, rng.choice([-1.0, 1.0], m) + 0j


def _cell_bcd_instances():
    """BCD inputs built like a single-user multipath sweep cell (M = 225, N = 4)."""
    scenario = Scenario(num_users=1, num_paths=8, user_distance_range=(30.0, 30.0))
    rng = np.random.default_rng(7)
    for distance in (1.0, 2.0, 4.0, 6.0):
        scen = scenario.replace(**{harness.SWEEPABLE["bs_irs_distance"]: distance})
        for _ in range(2):
            context = harness.cell_context(scen, rng)
            idx = su_opt.fpa_indices(context.fine, scen.num_mas)
            yield (context.h_iu[0], context.fine_columns[:, idx],
                   su_opt.random_reflection(rng, len(context.h_iu[0])))


def _assert_bcd_matches_reference(h_iu, h_bi, phi0):
    phi, trace = su_opt.bcd_irs(h_iu, h_bi, phi0)
    scalar_phi, scalar_trace = _scalar_bcd_irs(h_iu, h_bi, phi0)
    assert phi.tobytes() == scalar_phi.tobytes()
    assert trace == scalar_trace
    ref_phi, ref_trace, sweeps = _reference_bcd_irs(h_iu, h_bi, phi0)
    m = len(phi0)
    assert len(trace) == len(ref_trace) == 1 + m * sweeps
    assert abs(trace[-1] - ref_trace[-1]) <= 1e-12 * max(ref_trace[-1], 1e-300)
    assert np.all(np.diff(trace) >= -1e-10)
    if np.count_nonzero(np.any(h_iu[:, None] * h_bi != 0, axis=1)) < 2:
        # no element's phase changes the objective; the numpy loop turns it
        # by the phase of a rounding residue, the scalar loop keeps it
        np.testing.assert_array_equal(phi, phi0)
    else:
        np.testing.assert_allclose(phi, ref_phi, rtol=0, atol=1e-12)


class TestBcdMatchesNumpyLoop:
    def test_random_instances(self):
        instances = list(_random_bcd_instances())
        assert {len(phi0) for _, _, phi0 in instances} == set(range(1, 41))
        assert {h_bi.shape[1] for _, h_bi, _ in instances} == set(range(17))
        for h_iu, h_bi, phi0 in instances:
            _assert_bcd_matches_reference(h_iu, h_bi, phi0)

    def test_sweep_cell_instances(self):
        for h_iu, h_bi, phi0 in _cell_bcd_instances():
            assert h_bi.shape == (225, 4)
            _assert_bcd_matches_reference(h_iu, h_bi, phi0)

    def test_real_instances(self):
        # the numpy loop turns these phases off the real axis by rounding
        # residues (up to 3e-5) and can end elsewhere; the trace is checked
        # against the objective of the returned phases instead
        instances = list(_real_bcd_instances())
        assert {h_bi.shape[1] for _, h_bi, _ in instances} == set(range(1, 17))
        for h_iu, h_bi, phi0 in instances:
            phi, trace = su_opt.bcd_irs(h_iu, h_bi, phi0)
            scalar_phi, scalar_trace = _scalar_bcd_irs(h_iu, h_bi, phi0)
            assert phi.tobytes() == scalar_phi.tobytes()
            assert trace == scalar_trace
            assert np.all(phi.imag == 0) and np.all(np.abs(phi.real) == 1)
            g = h_iu.conj()[:, None] * h_bi
            assert trace[-1] == pytest.approx(np.linalg.norm(phi @ g) ** 2, rel=1e-12)
            assert np.all(np.diff(trace) >= -1e-10)

    def test_one_kernel_per_antenna_count(self):
        su_opt._bcd_sweep.cache_clear()
        rng = np.random.default_rng(606)
        for n in (2, 5, 2, 16, 5, 0):
            h_iu, h_bi = _random_channels(rng, 6, n)
            su_opt.bcd_irs(h_iu, h_bi, np.exp(1j * rng.uniform(0, 2 * np.pi, 6)))
        info = su_opt._bcd_sweep.cache_info()
        assert (info.misses, info.hits, info.currsize) == (4, 2, 4)


def _su_setup(scenario, seed=0):
    rng = np.random.default_rng(seed)
    geometry = scenario.geometry()
    model = channel.BsIrsModel(geometry, scenario.wavelength)
    h_iu = rician_row(rng, geometry, scenario)
    region = scenario.region()
    grid = su_opt.SamplingGrid.from_region(region, scenario.sample_spacing,
                                           scenario.min_spacing)
    phi0 = su_opt.random_reflection(rng, geometry.num_elements)
    idx0 = su_opt.fpa_indices(grid, scenario.num_mas)
    return h_iu, model, grid, phi0, idx0


class TestAoSingleUser:
    def test_monotone_and_improves_on_init(self, small_scenario):
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _su_setup(s)
        sol = su_opt.ao_single_user(h_iu, model.matrix(grid.points), grid, phi0, idx0,
                                    s.transmit_power, s.noise_power, solves={})
        assert np.all(np.diff(sol.trace) >= 0)
        assert sol.rate >= sol.trace[0]
        assert np.linalg.norm(sol.w) == pytest.approx(1.0, abs=1e-10)

    def test_far_field_snr_position_invariance(self, small_scenario, rng):
        s = small_scenario
        lam = s.wavelength
        region = s.region()
        grid = su_opt.SamplingGrid.from_region(region, s.sample_spacing, s.min_spacing)
        geometry = s.geometry()
        dep = -region.center_array / np.linalg.norm(region.center_array)

        class FarFieldModel:
            geometry = s.geometry()

            def matrix(self, positions):
                return channel.far_field_bs_irs(positions, geometry, [1, 0, 0],
                                                dep, 0.001 + 0.002j, lam)

        h_iu = rician_row(rng, geometry, s)
        phi0 = su_opt.random_reflection(rng, geometry.num_elements)
        snrs = []
        for start in ([0, 6, 12, 18], [5, 25, 60, 99], [40, 50, 70, 90]):
            sol = su_opt.ao_single_user(h_iu, FarFieldModel().matrix(grid.points), grid,
                                        phi0, start,
                                        s.transmit_power, s.noise_power,
                                        optimize_positions=False, solves={})
            snrs.append(2 ** sol.rate - 1)
        assert (max(snrs) - min(snrs)) / max(snrs) <= 1e-9

    def test_position_only_and_phase_only_flags(self, small_scenario):
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _su_setup(s, seed=3)
        sol_pos = su_opt.ao_single_user(h_iu, model.matrix(grid.points), grid, phi0, idx0,
                                        s.transmit_power, s.noise_power,
                                        optimize_phi=False, solves={})
        np.testing.assert_array_equal(sol_pos.phi, phi0)
        sol_phi = su_opt.ao_single_user(h_iu, model.matrix(grid.points), grid, phi0, idx0,
                                        s.transmit_power, s.noise_power,
                                        optimize_positions=False, solves={})
        assert sol_phi.indices == list(idx0)

    def test_fixed_positions_evaluate_the_objective_once_per_iteration(
            self, small_scenario, monkeypatch):
        # the objective after the placement step repeats the one before it
        # when no antenna moves, and is then not evaluated again
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _su_setup(s, seed=3)
        calls = []
        product = su_opt._grid_product
        monkeypatch.setattr(su_opt, "_grid_product",
                            lambda *args: calls.append(1) or product(*args))
        sol = su_opt.ao_single_user(h_iu, model.matrix(grid.points), grid, phi0, idx0,
                                    s.transmit_power, s.noise_power,
                                    optimize_positions=False, solves={})
        assert len(calls) == 1 + sol.iterations
        assert len(sol.trace) == 1 + sol.iterations

    def test_columns_of_another_grid_rejected(self, small_scenario):
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _su_setup(s)
        with pytest.raises(InvalidParameterError):
            su_opt.ao_single_user(h_iu, model.matrix(grid.points[:-1]), grid, phi0,
                                  idx0, s.transmit_power, s.noise_power, solves={})

    # `harness.cell_context` checks h_iu and the grid columns
    # (test_harness.py::TestCellContext::test_nonfinite_cell_rejected)
    @pytest.mark.parametrize("arg", ["phi_init"])
    def test_nonfinite_input_rejected(self, small_scenario, arg):
        s = small_scenario
        h_iu, model, grid, phi0, idx0 = _su_setup(s)
        args = dict(h_iu=h_iu, grid_columns=model.matrix(grid.points), phi_init=phi0)
        args[arg] = args[arg].copy()
        args[arg].flat[0] = np.nan
        with pytest.raises(InvalidParameterError):
            su_opt.ao_single_user(grid=grid, init_indices=idx0, power=s.transmit_power,
                                  noise_power=s.noise_power, solves={}, **args)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_graph_select_optimal_hypothesis(data):
    num_points = data.draw(st.integers(3, 18))
    num_select = data.draw(st.integers(1, 3))
    min_gap = data.draw(st.integers(1, 3))
    if (num_select - 1) * min_gap + 1 > num_points:
        return
    w = data.draw(st.lists(st.floats(0, 100), min_size=num_points,
                           max_size=num_points))
    got = su_opt.graph_position_select(w, num_select, min_gap)
    assert len(got) == num_select
    assert all(b - a >= min_gap for a, b in zip(got, got[1:]))
    best = max(
        (sum(w[i] for i in c)
         for c in itertools.combinations(range(num_points), num_select)
         if all(b - a >= min_gap for a, b in zip(c, c[1:]))))
    assert sum(w[i] for i in got) == pytest.approx(best, rel=1e-12, abs=1e-12)


# Reads "k m l" lines, each followed by the raw complex128 bytes of x ((m,)
# when k is 0, else (k, m)) and of the (m, l) columns, and answers with the
# bytes of x @ columns.
_PRODUCT_WORKER = """
import sys
import numpy as np
stdin, stdout = sys.stdin.buffer, sys.stdout.buffer
for line in stdin:
    k, m, l = map(int, line.split())
    x = np.frombuffer(stdin.read(16 * max(k, 1) * m), complex)
    x = x.reshape((k, m) if k else (m,))
    columns = np.frombuffer(stdin.read(16 * m * l), complex).reshape(m, l)
    stdout.write((x @ columns).tobytes())
    stdout.flush()
"""


@pytest.fixture(scope="module")
def one_thread_product():
    """x @ columns computed in a child process with BLAS on one thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    with subprocess.Popen([sys.executable, "-c", _PRODUCT_WORKER], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE) as proc:
        def product(x, columns):
            k = x.shape[0] if x.ndim == 2 else 0
            m, num_cols = columns.shape
            proc.stdin.write(f"{k} {m} {num_cols}\n".encode())
            proc.stdin.write(x.tobytes())
            proc.stdin.write(columns.tobytes())
            proc.stdin.flush()
            out = proc.stdout.read(16 * max(k, 1) * num_cols)
            return np.frombuffer(out, complex).reshape(x.shape[:-1] + (num_cols,))

        yield product  # leaving the block closes the pipes and waits for the child


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 4), m=st.integers(1, 700), num_cols=st.integers(1, 1001),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=3, m=225, num_cols=100, seed=0)  # multi-user cascade table
@example(k=0, m=225, num_cols=100, seed=1)  # single-user position weights
@example(k=0, m=625, num_cols=7, seed=2)  # objective, 25x25 surface
@example(k=4, m=700, num_cols=1001, seed=3)  # a one-column tail
@example(k=0, m=225, num_cols=17, seed=4)
def test_grid_product_is_one_thread_product(one_thread_product, k, m, num_cols, seed):
    """The blocked product equals the one-call product on one BLAS thread bit
    for bit, whatever the thread count of this process; k = 0 is a 1-D x."""
    group = su_opt._COLUMN_GROUP
    width = group * max(1, (su_opt._BLOCK_ENTRIES // m - 1) // group)
    assume(num_cols % width != 0)
    rng = np.random.default_rng(seed)
    shape = (k, m) if k else (m,)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    columns = rng.standard_normal((m, num_cols)) + 1j * rng.standard_normal((m, num_cols))
    got = su_opt._grid_product(x, columns)
    want = one_thread_product(x, columns)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
