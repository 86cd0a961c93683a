"""Channel synthesis: spherical-wave LoS, multipath, Rician and far-field models.

Sign convention: propagation phase is +2*pi*D/lambda throughout. Amplitudes use
the free-space law lambda/(4*pi*D). Element/antenna orderings follow
``IrsGeometry.element_positions`` (z-major) and the column order of the antenna
position array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .config import IrsGeometry, Scenario
from .errors import DegenerateGeometryError, InvalidParameterError


def _distance_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) distances as sqrt((dx^2 + dy^2) + dz^2), the sums of a
    per-pair norm. An axis on which one side's points all share a coordinate (a
    region along x, a surface in x = 0) is squared as a vector and broadcast: it
    differs from the outer difference only in the sign of a zero, which squaring
    drops. One-point sides skip those tests, which would cost more than they save."""
    n, m = len(a), len(b)
    test = min(n, m) >= 2
    squares = []
    for axis in range(3):
        ai, bi = a[:, axis], b[:, axis]
        if test and (bi == bi[0]).all():
            diff = (ai - bi[0])[:, None]
        elif test and (ai == ai[0]).all():
            diff = (ai[0] - bi)[None, :]
        else:
            diff = np.subtract.outer(ai, bi)
        diff *= diff
        squares.append(diff)
    d = np.add(squares[0], squares[1], out=np.empty((n, m)))
    d += squares[2]
    return np.sqrt(d, out=d)


def rayleigh_distance(geometry: IrsGeometry, region_length: float, wavelength: float) -> float:
    """Near/far-field boundary 2*(D_irs + A)^2 / lambda for the combined aperture."""
    if wavelength <= 0:
        raise InvalidParameterError("wavelength must be positive")
    return 2.0 * (geometry.aperture + region_length) ** 2 / wavelength


def nusw_los_matrix(positions, geometry: IrsGeometry, wavelength: float) -> np.ndarray:
    """Per-antenna LoS channel columns stacked into an (M, N) matrix."""
    if wavelength <= 0:
        raise InvalidParameterError("wavelength must be positive")
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    d = _distance_matrix(geometry.element_positions(), positions)
    if np.any(d <= 0):
        raise DegenerateGeometryError("source coincides with an array point")
    # lam / (4*pi*d) * exp(2j*pi*d / lam) in place: the same operations and
    # roundings, with fewer (M, N) temporaries
    h = np.multiply(2j * np.pi, d, dtype=complex)
    h /= wavelength
    np.exp(h, out=h)
    d *= 4 * np.pi
    np.divide(wavelength, d, out=d)
    h *= d
    return h


def near_field_response(points, source, wavelength: float) -> np.ndarray:
    """Unit-modulus spherical phase response exp(j*2*pi*||s - p||/lambda)."""
    if wavelength <= 0:
        raise InvalidParameterError("wavelength must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = _distance_matrix(points, np.atleast_2d(np.asarray(source, dtype=float)))[:, 0]
    if np.any(d <= 0):
        raise DegenerateGeometryError("source coincides with an array point")
    return np.exp(2j * np.pi * d / wavelength)


@dataclass(frozen=True)
class PathCluster:
    """One scattered path: scatterer location, power ratio and complex gain."""

    scatterer: tuple[float, float, float]
    power_ratio: complex
    gain: complex

    @property
    def scatterer_array(self) -> np.ndarray:
        return np.asarray(self.scatterer, dtype=float)


@dataclass(frozen=True)
class ClusterSet:
    """LoS power ratio plus the scattered paths of one channel realization."""

    los_ratio: complex
    clusters: tuple[PathCluster, ...] = ()


def sample_clusters(rng: np.random.Generator, num_paths: int, box_center, box_size,
                    wavelength: float, bs_center) -> ClusterSet:
    """Draw the LoS/NLoS power ratios and scatterer geometry of one realization.

    Ratios l_p ~ CN(0, 1/(L+1)) for p = 0..L. Scatterers are uniform in an
    axis-aligned box, whose sides `Scenario` checks to be positive. |gain_p|
    follows the product-path distance through the scatterer referenced to
    the region center, with uniform random phase.
    """
    box_size = np.asarray(box_size, dtype=float)
    box_center = np.asarray(box_center, dtype=float)
    bs_center = np.asarray(bs_center, dtype=float)

    var = 1.0 / (num_paths + 1)
    ratios = np.sqrt(var / 2) * (rng.standard_normal(num_paths + 1)
                                 + 1j * rng.standard_normal(num_paths + 1))
    clusters = []
    for p in range(num_paths):
        s = box_center + (rng.random(3) - 0.5) * box_size
        path_len = np.linalg.norm(bs_center - s) + np.linalg.norm(s)
        amp = wavelength / (4 * np.pi * path_len)
        phase = rng.uniform(0, 2 * np.pi)
        clusters.append(PathCluster(tuple(s), complex(ratios[p + 1]),
                                    complex(amp * np.exp(1j * phase))))
    return ClusterSet(complex(ratios[0]), tuple(clusters))


@dataclass(frozen=True)
class BsIrsModel:
    """Channel between antenna positions and the surface; columns are per-antenna.

    ``clusters=None`` means a pure LoS channel (unit LoS ratio).
    """

    geometry: IrsGeometry
    wavelength: float
    clusters: ClusterSet | None = None

    @functools.cached_property  # built once for all position sets
    def _surface(self) -> list[np.ndarray]:
        """Each cluster's (M,) response over the surface elements."""
        elements = self.geometry.element_positions()
        return [near_field_response(elements, c.scatterer_array, self.wavelength)
                for c in self.clusters.clusters]

    def matrix(self, positions, los: np.ndarray | None = None) -> np.ndarray:
        """(M, N) columns: the LoS part plus one rank-1 term per scattered path.
        `los` is the LoS columns of `positions` if the caller has them; a
        LoS-only model returns them as they are, a multipath one scales a copy."""
        positions = np.atleast_2d(np.asarray(positions, dtype=float))
        if los is None:
            los = nusw_los_matrix(positions, self.geometry, self.wavelength)
        if self.clusters is None:
            return los
        # Explicit in-place products: `ratio * los` would round unlike
        # `los *= ratio`, which numpy's temporary elision picks for 256 KiB or
        # more, so the rounding would depend on the number of columns.
        h = los.copy()
        h *= self.clusters.los_ratio
        for c, a in zip(self.clusters.clusters, self._surface):
            t = np.outer(a, near_field_response(positions, c.scatterer_array, self.wavelength))
            t *= c.power_ratio * c.gain
            h += t
        return h


def plane_wave_response(points, direction, wavelength: float) -> np.ndarray:
    """Unit-modulus far-field response exp(j*2*pi*<p, u>/lambda) over points."""
    if wavelength <= 0:
        raise InvalidParameterError("wavelength must be positive")
    direction = np.asarray(direction, dtype=float)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise InvalidParameterError("direction must be unit-norm")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.exp(2j * np.pi * points @ direction / wavelength)


def far_field_bs_irs(positions, geometry: IrsGeometry, arrival_direction,
                     departure_direction, path_gain: complex,
                     wavelength: float) -> np.ndarray:
    """Rank-1 far-field channel path_gain * u v^H over elements x antennas."""
    u = plane_wave_response(geometry.element_positions(), arrival_direction, wavelength)
    v = plane_wave_response(positions, departure_direction, wavelength)
    return path_gain * np.outer(u, v.conj())


def draw_user_direction(rng: np.random.Generator, azimuth_range,
                        elevation_range) -> np.ndarray:
    """Unit direction to a user; azimuth then elevation drawn uniformly."""
    az = rng.uniform(*azimuth_range)
    el = rng.uniform(*elevation_range)
    return np.array([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)])


def _rician_rows(geometry: IrsGeometry, distances, directions, normals,
                 rician_factor: float, pathloss_exponent: float, wavelength: float):
    """Rician surface-to-user rows (K, M) from K distances, unit directions and
    (2, M) standard normal pairs: plane-wave LoS mixed with CN(0, 1) fading,
    times the path loss. Each direction gets its own vector-matrix product, as
    a (K, 3) matrix product would round unlike a one-user build."""
    h_los = np.exp(2j * np.pi * geometry.element_positions()
                   @ np.asarray(directions, dtype=float)[:, :, None] / wavelength)[:, :, 0]
    h_nlos = (normals[:, 0] + 1j * normals[:, 1]) / np.sqrt(2)
    mix = (np.sqrt(rician_factor / (1 + rician_factor)) * h_los
           + np.sqrt(1 / (1 + rician_factor)) * h_nlos)
    scale = [wavelength / (4 * np.pi) * d ** (-pathloss_exponent / 2) for d in distances]
    return np.array(scale)[:, None] * mix


def _draw_users(rngs, scenario: Scenario, geometry: IrsGeometry) -> np.ndarray:
    """Rician surface-to-user rows (K, M), one user per generator of `rngs` (the
    same generator may recur): each draws distance, direction, then fading."""
    distances, directions, normals = [], [], []
    for rng in rngs:
        distances.append(rng.uniform(*scenario.user_distance_range))
        directions.append(draw_user_direction(rng, scenario.user_azimuth_range,
                                              scenario.user_elevation_range))
        normals.append(rng.standard_normal((2, geometry.num_elements)))
    return _rician_rows(geometry, distances, directions, np.array(normals),
                        scenario.rician_factor, scenario.pathloss_exponent, scenario.wavelength)


def cascaded_row(h_iu: np.ndarray, phi: np.ndarray, h_bi: np.ndarray) -> np.ndarray:
    """End-to-end row h_iu^H diag(phi) H over antennas, (N,)."""
    h_iu = np.asarray(h_iu)
    phi = np.asarray(phi)
    h_bi = np.atleast_2d(np.asarray(h_bi))
    if h_iu.shape[0] != phi.shape[0] or phi.shape[0] != h_bi.shape[0]:
        raise InvalidParameterError("dimension mismatch between channel factors")
    return (h_iu.conj() * phi) @ h_bi
