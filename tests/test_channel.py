"""Channel synthesis: spherical-wave LoS, multipath, Rician and far-field models."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irsma import channel
from irsma.config import IrsGeometry, Scenario
from irsma.errors import DegenerateGeometryError, InvalidParameterError
from irsma.rng import substream


class TestRayleighDistance:
    def test_default_scenario_value(self):
        s = Scenario()
        d = channel.rayleigh_distance(s.geometry(), s.region_length, s.wavelength)
        assert d == pytest.approx(50.95, abs=0.05)

    def test_zero_aperture(self):
        g = IrsGeometry(num_y=1, num_z=1, spacing=0.0)
        assert channel.rayleigh_distance(g, 0.0, 0.06) == 0.0

    def test_hand_arithmetic(self):
        # aperture sqrt(2^2 + 2^2) * 0.5 = sqrt(2); 2 * (sqrt(2))^2 / 0.5 = 8
        g = IrsGeometry(num_y=2, num_z=2, spacing=0.5)
        assert channel.rayleigh_distance(g, 0.0, 0.5) == pytest.approx(8.0, rel=1e-12)

    def test_bad_wavelength(self):
        g = IrsGeometry(num_y=2, num_z=2, spacing=0.5)
        with pytest.raises(InvalidParameterError):
            channel.rayleigh_distance(g, 0.0, 0.0)


class TestNuswLos:
    def test_single_element_one_wavelength(self):
        lam = 0.06
        g = IrsGeometry(num_y=1, num_z=1, spacing=0.0)
        h = channel.nusw_los_matrix([lam, 0.0, 0.0], g, lam)[:, 0]
        assert abs(h[0]) == pytest.approx(1 / (4 * np.pi), rel=1e-12)
        assert np.angle(h[0]) == pytest.approx(0.0, abs=1e-9)

    def test_half_wavelength(self):
        lam = 0.06
        g = IrsGeometry(num_y=1, num_z=1, spacing=0.0)
        h = channel.nusw_los_matrix([lam / 2, 0.0, 0.0], g, lam)[:, 0]
        assert abs(h[0]) == pytest.approx(1 / (2 * np.pi), rel=1e-12)
        assert abs(np.angle(h[0])) == pytest.approx(np.pi, abs=1e-9)

    def test_amplitudes_decrease_with_distance(self, small_geometry):
        lam = 0.06
        a1 = np.abs(channel.nusw_los_matrix([1.0, 0, 0], small_geometry, lam))
        a2 = np.abs(channel.nusw_los_matrix([2.0, 0, 0], small_geometry, lam))
        assert np.all(a2 < a1)

    def test_entry_formula_per_element(self, small_geometry):
        lam = 0.0599584916
        t = np.array([1.3, -0.2, 0.4])
        h = channel.nusw_los_matrix(t, small_geometry, lam)[:, 0]
        d = np.linalg.norm(small_geometry.element_positions() - t, axis=1)
        np.testing.assert_allclose(np.abs(h), lam / (4 * np.pi * d), rtol=1e-12)
        np.testing.assert_allclose(
            np.angle(h * np.exp(-2j * np.pi * d / lam)), 0.0, atol=1e-9)

    def test_coincident_point_raises(self, small_geometry):
        t = small_geometry.element_positions()[0]
        with pytest.raises(DegenerateGeometryError):
            channel.nusw_los_matrix(t, small_geometry, 0.06)

    def test_matrix_single_column(self, small_geometry):
        # one position given as a point, not a (1, 3) array
        t = np.array([2.0, 0.1, -0.1])
        m = channel.nusw_los_matrix([t], small_geometry, 0.06)
        np.testing.assert_array_equal(m, channel.nusw_los_matrix(t, small_geometry, 0.06))

    def test_matrix_column_permutation(self, small_geometry):
        pos = np.array([[2.0, 0, 0], [2.5, 0.1, 0], [3.0, -0.1, 0.2]])
        m = channel.nusw_los_matrix(pos, small_geometry, 0.06)
        m_perm = channel.nusw_los_matrix(pos[::-1], small_geometry, 0.06)
        np.testing.assert_array_equal(m_perm, m[:, ::-1])

    def test_matrix_equals_per_column_loop(self, rng):
        # reference: one norm and one formula per antenna position
        def column(t, geometry, lam):
            d = np.linalg.norm(geometry.element_positions() - t, axis=-1)
            return lam / (4 * np.pi * d) * np.exp(2j * np.pi * d / lam)

        for _ in range(20):
            lam = rng.uniform(0.01, 0.3)
            g = IrsGeometry(int(rng.integers(1, 12)), int(rng.integers(1, 12)),
                            rng.uniform(0.005, 0.1))
            pos = rng.normal(size=(int(rng.integers(1, 40)), 3)) * rng.uniform(0.5, 10)
            expected = np.column_stack([column(t, g, lam) for t in pos])
            np.testing.assert_array_equal(channel.nusw_los_matrix(pos, g, lam), expected)

    def test_matrix_coincident_point_raises(self, small_geometry):
        pos = np.array([[2.0, 0, 0], small_geometry.element_positions()[5]])
        with pytest.raises(DegenerateGeometryError):
            channel.nusw_los_matrix(pos, small_geometry, 0.06)

    def test_matrix_bad_wavelength(self, small_geometry):
        with pytest.raises(InvalidParameterError):
            channel.nusw_los_matrix([[2.0, 0, 0]], small_geometry, 0.0)

    def test_equidistant_antennas_equal_magnitude(self):
        g = IrsGeometry(num_y=1, num_z=1, spacing=0.0)
        m = channel.nusw_los_matrix([[1.0, 1.0, 0], [1.0, -1.0, 0]], g, 0.06)
        assert abs(abs(m[0, 0]) - abs(m[0, 1])) < 1e-15


class TestNearFieldResponse:
    def test_unit_modulus(self, rng):
        pts = rng.normal(size=(10, 3))
        out = channel.near_field_response(pts, [5.0, 5.0, 5.0], 0.06)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-12)

    def test_full_wavelength_phase(self):
        lam = 0.06
        out = channel.near_field_response([[lam, 0, 0]], [0, 0, 0], lam)
        assert out[0] == pytest.approx(1.0, abs=1e-9)

    def test_half_turn(self):
        lam = 0.06
        out = channel.near_field_response([[lam, 0, 0], [1.5 * lam, 0, 0]],
                                          [0, 0, 0], lam)
        assert out[0] == pytest.approx(1.0, abs=1e-9)
        assert out[1] == pytest.approx(-1.0, abs=1e-9)

    def test_equals_per_point_norm(self, rng):
        for _ in range(200):
            pts = rng.uniform(-2, 2, size=(int(rng.integers(1, 50)), 3))
            source = rng.uniform(-5, 5, size=3)
            lam = float(rng.uniform(0.01, 0.3))
            d = np.linalg.norm(pts - source, axis=-1)
            np.testing.assert_array_equal(channel.near_field_response(pts, source, lam),
                                          np.exp(2j * np.pi * d / lam))

    def test_coincident_point_raises(self, rng):
        pts = rng.normal(size=(5, 3))
        with pytest.raises(DegenerateGeometryError):
            channel.near_field_response(pts, pts[3], 0.06)


def _reference_distance_matrix(a, b):
    """The kernel as three full outer differences summed into zeros."""
    d = np.zeros((len(a), len(b)))
    for axis in range(3):
        diff = np.subtract.outer(a[:, axis], b[:, axis])
        diff *= diff
        d += diff
    return np.sqrt(d, out=d)


_COORD = st.one_of(st.floats(-50, 50), st.sampled_from([0.0, -0.0]))


@st.composite
def _points(draw):
    """(n, 3) points, 0 <= n <= 6, each axis free, shared by every point, or a
    mix of 0.0 and -0.0: clouds, lines along each axis, the x = 0 plane, one
    point and no point all come out of it."""
    n = draw(st.integers(0, 6))
    cols = []
    for kind in draw(st.lists(st.sampled_from(["free", "shared", "zeros"]),
                              min_size=3, max_size=3)):
        if kind == "shared":
            cols.append([draw(_COORD)] * n)
        else:
            coord = _COORD if kind == "free" else st.sampled_from([0.0, -0.0])
            cols.append(draw(st.lists(coord, min_size=n, max_size=n)))
    return np.array(cols, dtype=float).reshape(3, n).T.copy()


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestDistanceMatrix:
    @settings(max_examples=400, deadline=None)
    @given(a=_points(), b=_points())
    def test_bit_identical_to_outer_loop(self, a, b):
        _assert_same_bits(channel._distance_matrix(a, b), _reference_distance_matrix(a, b))

    def test_region_against_surface(self):
        # the shapes of the equivalence battery and of the channel columns: a
        # region along x (shared y and z) against a surface in x = 0
        s = Scenario(irs_num_y=25, irs_num_z=25)
        elements = s.geometry().element_positions()
        points = s.region().point(np.linspace(-0.3, 0.3, 1001))
        for a, b in ((points, elements), (elements, points), (elements, points[:1]),
                     (points[:1], elements), (elements, points[:0]), (points[:0], elements)):
            _assert_same_bits(channel._distance_matrix(a, b), _reference_distance_matrix(a, b))


class TestElementPositions:
    def test_built_once_and_read_only(self, small_geometry):
        e = small_geometry.element_positions()
        assert small_geometry.element_positions() is e
        with pytest.raises(ValueError):
            e[0, 0] = 1.0
        off = (np.arange(4) - 1.5) * 0.03
        np.testing.assert_array_equal(
            e, np.column_stack([np.zeros(16), np.tile(off, 4), np.repeat(off, 4)]))

    def test_replaced_geometry_builds_its_own(self, small_geometry):
        e = small_geometry.element_positions()
        same = dataclasses.replace(small_geometry)
        assert same == small_geometry and hash(same) == hash(small_geometry)
        assert same.element_positions() is not e
        np.testing.assert_array_equal(same.element_positions(), e)
        assert dataclasses.replace(small_geometry, num_y=5).element_positions().shape == (20, 3)


class TestMultipath:
    def test_pure_los_identity(self, small_geometry):
        pos = np.array([[2.0, 0, 0], [2.1, 0, 0]])
        cs = channel.ClusterSet(los_ratio=1.0, clusters=())
        np.testing.assert_array_equal(
            channel.BsIrsModel(small_geometry, 0.06, cs).matrix(pos),
            channel.nusw_los_matrix(pos, small_geometry, 0.06))

    def test_single_scatterer_rank1_unit_modulus(self, small_geometry):
        pos = np.array([[2.0, 0, 0], [2.1, 0, 0]])
        cl = channel.PathCluster(scatterer=(1.0, 1.0, 0.5), power_ratio=1.0, gain=1.0)
        cs = channel.ClusterSet(los_ratio=0.0, clusters=(cl,))
        h = channel.BsIrsModel(small_geometry, 0.06, cs).matrix(pos)
        np.testing.assert_allclose(np.abs(h), 1.0, atol=1e-12)
        assert np.linalg.matrix_rank(h, tol=1e-10) == 1

    def test_nlos_linearity(self, small_geometry):
        pos = np.array([[2.0, 0, 0]])
        base = channel.PathCluster((1.0, 0.5, 0.2), 0.3 + 0.1j, 0.2 - 0.4j)
        double = channel.PathCluster((1.0, 0.5, 0.2), 0.3 + 0.1j, 0.4 - 0.8j)
        los = channel.nusw_los_matrix(pos, small_geometry, 0.06)
        h1, h2 = (channel.BsIrsModel(small_geometry, 0.06,
                                     channel.ClusterSet(1.0, (c,))).matrix(pos)
                  for c in (base, double))
        np.testing.assert_allclose(h2 - los, 2 * (h1 - los), rtol=1e-10)

    def test_column_locality(self, small_geometry, rng):
        """Each column depends only on the corresponding antenna position, to
        the last bit: the build rounds alike at every number of columns."""
        cs = channel.sample_clusters(rng, 3, [1.0, 1.0, 0.0], (2, 2, 2), 0.06,
                                     [2.0, 2.0, 0.0])
        model = channel.BsIrsModel(small_geometry, 0.06, cs)
        pos = np.array([[2.0, 0, 0], [2.2, 0, 0]])
        full = model.matrix(pos)
        np.testing.assert_array_equal(full[:, :1], model.matrix(pos[:1]))
        np.testing.assert_array_equal(full[:, 1:], model.matrix(pos[1:]))

    def test_shared_los_gives_the_fresh_build_bytes(self, rng):
        # 225 x 100 columns pass numpy's 256 KiB temporary-elision size, so the
        # fresh LoS temporary below is scaled in place
        geometry = IrsGeometry(15, 15, 0.03)
        cs = channel.sample_clusters(rng, 3, [2.8, 2.8, 0.0], (2, 2, 2), 0.06,
                                     [5.6, 5.6, 0.0])
        pos = np.array([5.3, 5.3, 0.0]) + np.linspace(0, 0.6, 100)[:, None] * [1, 0, 0]
        want = cs.los_ratio * channel.nusw_los_matrix(pos, geometry, 0.06)
        for c in cs.clusters:
            want += c.power_ratio * c.gain * np.outer(
                channel.near_field_response(geometry.element_positions(),
                                            c.scatterer_array, 0.06),
                channel.near_field_response(pos, c.scatterer_array, 0.06))
        assert channel.BsIrsModel(geometry, 0.06, cs).matrix(pos).tobytes() == want.tobytes()
        los = channel.nusw_los_matrix(pos, geometry, 0.06)
        los.flags.writeable = False  # as the cells of one swept value share it
        model = channel.BsIrsModel(geometry, 0.06, cs)
        for _ in range(2):  # scaled in a copy, so the shared columns stay as they are
            assert model.matrix(pos, los).tobytes() == want.tobytes()
        assert los.tobytes() == channel.nusw_los_matrix(pos, geometry, 0.06).tobytes()
        # a LoS-only model returns them as they are
        assert channel.BsIrsModel(geometry, 0.06).matrix(pos, los) is los

    def test_surface_responses_built_once(self, small_geometry, rng, monkeypatch):
        cs = channel.sample_clusters(rng, 3, [1.0, 1.0, 0.0], (2, 2, 2), 0.06,
                                     [2.0, 2.0, 0.0])
        fine = np.array([[2.0, 0, 0], [2.1, 0, 0], [2.2, 0, 0]])
        elements = small_geometry.element_positions()
        expected = []
        for p in (fine, fine[::2]):  # every response built anew per grid
            h = channel.nusw_los_matrix(p, small_geometry, 0.06)
            h *= cs.los_ratio
            for c in cs.clusters:
                t = np.outer(
                    channel.near_field_response(elements, c.scatterer_array, 0.06),
                    channel.near_field_response(p, c.scatterer_array, 0.06))
                t *= c.power_ratio * c.gain
                h += t
            expected.append(h)
        calls, original = [], channel.near_field_response

        def counting(points, source, wavelength):
            calls.append(len(np.atleast_2d(points)))
            return original(points, source, wavelength)

        monkeypatch.setattr(channel, "near_field_response", counting)
        model = channel.BsIrsModel(small_geometry, 0.06, cs)
        for p, want in zip((fine, fine[::2]), expected):
            assert model.matrix(p).tobytes() == want.tobytes()
        # each path's 16-element surface side once, its antenna side per grid
        assert calls == [16] * 3 + [3] * 3 + [2] * 3


class TestSampleClusters:
    def test_l0_second_moment(self):
        rng = np.random.default_rng(7)
        draws = [abs(channel.sample_clusters(rng, 0, [1, 1, 0], (2, 2, 2), 0.06,
                                             [2, 2, 0]).los_ratio) ** 2
                 for _ in range(10_000)]
        assert np.mean(draws) == pytest.approx(1.0, rel=0.05)

    def test_power_ratio_sum(self):
        rng = np.random.default_rng(8)
        total = 0.0
        n = 10_000
        for _ in range(n):
            cs = channel.sample_clusters(rng, 4, [1, 1, 0], (2, 2, 2), 0.06, [2, 2, 0])
            total += abs(cs.los_ratio) ** 2
            total += sum(abs(c.power_ratio) ** 2 for c in cs.clusters)
        assert total / n == pytest.approx(1.0, rel=0.05)

    def test_determinism(self):
        a = channel.sample_clusters(substream(3, "x"), 2, [1, 1, 0], (2, 2, 2),
                                    0.06, [2, 2, 0])
        b = channel.sample_clusters(substream(3, "x"), 2, [1, 1, 0], (2, 2, 2),
                                    0.06, [2, 2, 0])
        assert a == b

    def test_scatterers_in_box(self):
        rng = np.random.default_rng(9)
        center = np.array([1.0, 2.0, 0.5])
        size = np.array([2.0, 1.0, 0.4])
        cs = channel.sample_clusters(rng, 20, center, size, 0.06, [2, 4, 1])
        for c in cs.clusters:
            assert np.all(np.abs(c.scatterer_array - center) <= size / 2 + 1e-12)


class TestRicianIuChannel:
    def test_los_limit_modulus(self, small_geometry):
        rng = np.random.default_rng(5)
        lam, dist, alpha = 0.06, 40.0, 2.8
        h = channel._rician_rows(small_geometry, [dist], [[1, 0, 0]],
                                 rng.standard_normal((1, 2, 16)), 1e12, alpha, lam)
        expected = lam / (4 * np.pi) * dist ** (-alpha / 2)
        np.testing.assert_allclose(np.abs(h), expected, rtol=1e-5)

    def test_second_moment(self, small_geometry):
        rng = np.random.default_rng(6)
        lam, dist, alpha, kap = 0.06, 35.0, 2.8, 10 ** 0.3
        n = 10_000
        h = channel._rician_rows(small_geometry, [dist] * n, [[1, 0, 0]] * n,
                                 rng.standard_normal((n, 2, 16)), kap, alpha, lam)
        expected = (lam / (4 * np.pi)) ** 2 * dist ** (-alpha)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(expected, rel=0.05)

    def test_determinism(self):
        s = Scenario(irs_num_y=4, irs_num_z=4, rician_factor=2.0)
        a = channel._draw_users([substream(1, "u")], s, s.geometry())
        b = channel._draw_users([substream(1, "u")], s, s.geometry())
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_draw_user_is_distance_direction_fading(self, seed):
        """Each row of `_draw_users` is, bit for bit, a one-user `_rician_rows`
        of a distance, a direction and then the fading drawn from the row's
        generator, whether each row has its own generator or all share one."""
        s = Scenario(irs_num_y=5, irs_num_z=3, rician_factor=2.0, pathloss_exponent=2.2)
        geometry = s.geometry()

        def one_user(rng):
            d = rng.uniform(*s.user_distance_range)
            u = channel.draw_user_direction(rng, s.user_azimuth_range,
                                            s.user_elevation_range)
            normals = rng.standard_normal((1, 2, geometry.num_elements))
            return channel._rician_rows(geometry, [d], [u], normals, s.rician_factor,
                                        s.pathloss_exponent, s.wavelength)[0]

        def streams():
            return [substream(seed, "user", i) for i in range(4)]

        want = np.array([one_user(rng) for rng in streams()])
        got = channel._draw_users(streams(), s, geometry)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

        for k in (1, 3):
            rng = substream(seed, "shared", k)
            want = [one_user(rng) for _ in range(k)] + [rng.random()]
            rng = substream(seed, "shared", k)
            got = channel._draw_users([rng] * k, s, geometry)
            assert got.shape == (k, geometry.num_elements)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          np.array(want[:k]).view(np.uint64))
            assert rng.random() == want[k]  # and the stream continues where it did


class TestFarField:
    def test_rank_one_and_norm(self, small_geometry, rng):
        lam = 0.06
        pos = rng.uniform(7.5, 8.5, (4, 1)) * np.array([[1.0, 0, 0]])
        h = channel.far_field_bs_irs(pos, small_geometry, [1, 0, 0], [-1, 0, 0],
                                     0.5 + 0.1j, lam)
        assert np.linalg.matrix_rank(h, tol=1e-10) == 1
        v = channel.plane_wave_response(pos, [-1, 0, 0], lam)
        assert np.linalg.norm(v) ** 2 == pytest.approx(len(pos), rel=1e-12)

    def test_common_translation_is_global_phase(self, rng):
        lam = 0.06
        pos = np.cumsum(rng.uniform(0.03, 0.1, 5))[:, None] * np.array([[1.0, 0, 0]])
        dirn = np.array([0.6, 0.8, 0.0])
        v1 = channel.plane_wave_response(pos, dirn, lam)
        v2 = channel.plane_wave_response(pos + np.array([0.123, -0.05, 0.02]), dirn, lam)
        np.testing.assert_allclose(np.abs(v2), 1.0, atol=1e-12)
        ratios = v2 / v1
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-10)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(InvalidParameterError):
            channel.plane_wave_response([[1, 0, 0]], [2.0, 0, 0], 0.06)


class TestCascadedRow:
    def test_scalar_case(self):
        h_iu = np.array([0.3 + 0.4j])
        h_bi = np.array([[0.2 - 0.1j]])
        row = channel.cascaded_row(h_iu, np.array([1.0 + 0j]), h_bi)
        assert row[0] == pytest.approx(np.conj(h_iu[0]) * h_bi[0, 0])

    def test_cophased_magnitude(self, small_geometry, rng):
        lam = 0.06
        h_bi = channel.nusw_los_matrix([2.0, 0.5, 0.1], small_geometry, lam)[:, 0]
        h_iu = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phi = np.exp(1j * (np.angle(h_iu) - np.angle(h_bi)))  # co-phases both hops
        row = channel.cascaded_row(h_iu, phi, h_bi[:, None])
        assert np.angle(row[0]) == pytest.approx(0.0, abs=1e-10)
        assert abs(row[0]) == pytest.approx(
            float(np.sum(np.abs(h_iu) * np.abs(h_bi))), rel=1e-10)

    def test_global_phase_of_phi(self, small_geometry, rng):
        lam = 0.06
        h_bi = channel.nusw_los_matrix([[2.0, 0, 0], [2.2, 0, 0]], small_geometry, lam)
        h_iu = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 16))
        r1 = channel.cascaded_row(h_iu, phi, h_bi)
        r2 = channel.cascaded_row(h_iu, phi * np.exp(0.7j), h_bi)
        np.testing.assert_allclose(np.abs(r1), np.abs(r2), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            channel.cascaded_row(np.ones(3), np.ones(2), np.ones((2, 1)))


def test_user_direction_draws_azimuth_then_elevation():
    az_range, el_range = (-1.0, 1.0), (-0.5, 0.5)
    u = channel.draw_user_direction(np.random.default_rng(7), az_range, el_range)
    ref = np.random.default_rng(7)
    az, el = ref.uniform(*az_range), ref.uniform(*el_range)
    np.testing.assert_array_equal(
        u, [np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(x=st.floats(0.5, 10), y=st.floats(-3, 3), z=st.floats(-3, 3),
       lam=st.floats(0.01, 0.3))
def test_nusw_entry_law_hypothesis(x, y, z, lam):
    g = IrsGeometry(num_y=3, num_z=2, spacing=lam / 2)
    t = np.array([x, y, z])
    h = channel.nusw_los_matrix(t, g, lam)[:, 0]
    d = np.linalg.norm(g.element_positions() - t, axis=1)
    np.testing.assert_allclose(np.abs(h), lam / (4 * np.pi * d), rtol=1e-10)
    np.testing.assert_allclose(h / np.abs(h), np.exp(2j * np.pi * d / lam), atol=1e-9)
