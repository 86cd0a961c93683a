"""Experiment geometry and scenario configuration.

The reflecting surface lies in the x=0 plane centered at the origin; element
(iy, iz) sits at [0, y_off[iy], z_off[iz]] with offsets centered on the origin.
Flattened element/channel indexing is z-major everywhere in the package:
``m = iz * num_y + iy``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np
import yaml

from .errors import InvalidParameterError

SPEED_OF_LIGHT = 299_792_458.0


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n == 0:
        raise InvalidParameterError("zero direction vector")
    return v / n


@dataclass(frozen=True)
class IrsGeometry:
    """Rectangular lattice of reflecting elements in the x=0 plane."""

    num_y: int
    num_z: int
    spacing: float  # m

    def __post_init__(self):
        if self.num_y < 1 or self.num_z < 1:
            raise InvalidParameterError("element counts must be positive")
        if self.spacing < 0:
            raise InvalidParameterError("element spacing must be non-negative")

    @property
    def num_elements(self) -> int:
        return self.num_y * self.num_z

    @property
    def aperture(self) -> float:
        return float(np.hypot(self.num_y, self.num_z) * self.spacing)

    def element_positions(self) -> np.ndarray:
        """(M, 3) element coordinates, z-major flattening, centered at origin;
        built once per geometry and read-only."""
        return self._elements

    @functools.cached_property  # in the instance __dict__, outside eq and hash
    def _elements(self) -> np.ndarray:
        y_off = (np.arange(self.num_y) - (self.num_y - 1) / 2.0) * self.spacing
        z_off = (np.arange(self.num_z) - (self.num_z - 1) / 2.0) * self.spacing
        yy = np.tile(y_off, self.num_z)
        zz = np.repeat(z_off, self.num_y)
        elements = np.column_stack([np.zeros_like(yy), yy, zz])
        elements.flags.writeable = False
        return elements


@dataclass(frozen=True)
class TransmitRegion:
    """1D segment of length `length` centered at `center` along `axis`."""

    center: tuple[float, float, float]
    axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    length: float = 0.6  # m

    def __post_init__(self):
        if self.length < 0:
            raise InvalidParameterError("region length must be non-negative")
        object.__setattr__(self, "axis", tuple(_unit(self.axis)))
        object.__setattr__(self, "center", tuple(float(c) for c in self.center))

    @property
    def center_array(self) -> np.ndarray:
        return np.asarray(self.center, dtype=float)

    @property
    def axis_array(self) -> np.ndarray:
        return np.asarray(self.axis, dtype=float)

    def point(self, offset) -> np.ndarray:
        """Map axial offset(s) in [-length/2, length/2] to 3D coordinates."""
        s = np.asarray(offset, dtype=float)
        return self.center_array + np.multiply.outer(s, self.axis_array)


@dataclass(frozen=True)
class Scenario:
    """Full experiment parameterization (defaults follow the reference setup)."""

    carrier_frequency: float = 5e9  # Hz
    num_mas: int = 4
    num_users: int = 3
    transmit_power: float = 10 ** (46 / 10) * 1e-3  # 46 dBm in watts
    noise_power: float = 10 ** (-80 / 10) * 1e-3  # -80 dBm in watts
    min_spacing: float | None = None  # default lambda/2
    sample_spacing: float | None = None  # default lambda/10
    rician_factor: float = 10 ** 0.3  # 3 dB, linear
    pathloss_exponent: float = 2.8
    num_paths: int = 0
    master_seed: int = 0

    irs_num_y: int = 15
    irs_num_z: int = 15
    irs_spacing: float | None = None  # default lambda/2
    region_length: float = 0.6  # m
    region_axis: tuple[float, float, float] = (1.0, 0.0, 0.0)
    bs_distance: float = 8.0  # m, IRS center to region center
    bs_direction: tuple[float, float, float] = (
        0.7071067811865476, 0.7071067811865476, 0.0)

    user_distance_range: tuple[float, float] = (30.0, 50.0)
    user_azimuth_range: tuple[float, float] = (-np.pi / 3, np.pi / 3)
    user_elevation_range: tuple[float, float] = (-np.pi / 6, np.pi / 6)
    scatterer_box_size: tuple[float, float, float] = (2.0, 2.0, 2.0)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue  # a spacing that the wavelength sets below
            if isinstance(value, list):  # as YAML gives a vector
                object.__setattr__(self, f.name, value := tuple(value))
            is_tuple = isinstance(f.default, tuple)
            if is_tuple and not (isinstance(value, tuple) and len(value) == len(f.default)):
                raise InvalidParameterError(
                    f"{f.name} must be {len(f.default)} numbers, got {value!r}")
            items = value if is_tuple else (value,)
            # YAML 1.1 reads 5e9, without a dot, as a string, and a bool is a Real
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
                raise InvalidParameterError(f"{f.name} must be a number, got {value!r}")
            if not all(math.isfinite(v) for v in items):
                raise InvalidParameterError(f"{f.name} must be finite, got {value!r}")
            if f.type == "int":  # YAML gives 2.0 for 2, and 8 for 8.0
                if value != int(value):
                    raise InvalidParameterError(f"{f.name} must be an integer, got {value!r}")
                object.__setattr__(self, f.name, int(value))
            elif f.type == "float":
                object.__setattr__(self, f.name, float(value))
        if self.carrier_frequency <= 0:
            raise InvalidParameterError("carrier frequency must be positive")
        if self.master_seed < 0:
            raise InvalidParameterError("master_seed must be >= 0")
        if self.num_mas < 1 or self.num_users < 1:
            raise InvalidParameterError("antenna and user counts must be >= 1")
        if self.transmit_power <= 0 or self.noise_power <= 0:
            raise InvalidParameterError("powers must be positive")
        if self.rician_factor < 0 or self.num_paths < 0:
            raise InvalidParameterError("rician factor and path count must be >= 0")
        if min(self.user_distance_range) <= 0:
            raise InvalidParameterError("user distances must be positive")
        if min(self.scatterer_box_size) <= 0:  # checked even if no path uses it
            raise InvalidParameterError("scatterer box must have positive side lengths")
        for name in ("user_distance_range", "user_azimuth_range", "user_elevation_range"):
            low, high = getattr(self, name)
            if low > high:
                raise InvalidParameterError(f"{name} must be (low, high), got {(low, high)}")
        lam = SPEED_OF_LIGHT / self.carrier_frequency
        for name, default in (("min_spacing", lam / 2), ("sample_spacing", lam / 10),
                              ("irs_spacing", lam / 2)):
            if getattr(self, name) is None:
                object.__setattr__(self, name, default)
        if self.min_spacing <= 0 or self.sample_spacing <= 0:
            raise InvalidParameterError("spacings must be positive")
        object.__setattr__(self, "bs_direction", tuple(_unit(self.bs_direction)))
        object.__setattr__(self, "region_axis", tuple(_unit(self.region_axis)))
        # their checks (positive element counts, a non-negative length) run at load
        self.geometry()
        self.region()

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_frequency

    def geometry(self) -> IrsGeometry:
        return IrsGeometry(self.irs_num_y, self.irs_num_z, self.irs_spacing)

    def region(self) -> TransmitRegion:
        center = self.bs_distance * np.asarray(self.bs_direction)
        return TransmitRegion(tuple(center), self.region_axis, self.region_length)

    def replace(self, **kwargs) -> "Scenario":
        return dataclasses.replace(self, **kwargs)


def _from_section(cls, section, name: str):
    """The `cls` that config section `name` sets; a null section means the defaults."""
    if section is not None and not isinstance(section, dict):
        raise InvalidParameterError(f"{name} section must be a mapping, got {section!r}")
    section = section or {}
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(section) - set(defaults), key=str)
    missing = [k for k, d in defaults.items() if d is dataclasses.MISSING and k not in section]
    for problem, keys in (("unknown", unknown), ("missing", missing)):
        if keys:
            raise InvalidParameterError(f"{problem} {name} keys: {keys}")
    return cls(**section)


def scenario_from_dict(d) -> Scenario:
    return _from_section(Scenario, d, "scenario")


class _UniqueKeyLoader(yaml.SafeLoader):
    """`yaml.SafeLoader` that rejects a key repeated in one mapping, where
    PyYAML would keep the last value without a word."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        keys = [self.construct_object(key, deep) for key in own]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found repeated key {key!r}", own[i].start_mark)
        return super().construct_mapping(node, deep)


def load_config(path) -> dict:
    """Load a YAML config: a mapping from section names to sections, none of
    whose keys repeats. The file is read as bytes, so YAML decodes it (UTF-8
    unless a BOM says otherwise)."""
    try:
        with open(path, "rb") as fh:
            data = yaml.load(fh, Loader=_UniqueKeyLoader)
    except (OSError, yaml.YAMLError) as exc:
        detail = " ".join(str(exc).split())  # YAML's message spans lines
        raise InvalidParameterError(f"cannot load config {path}: {detail}") from exc
    if data is not None and not isinstance(data, dict):
        raise InvalidParameterError(f"a config must be a mapping, got {type(data).__name__}")
    return data or {}
