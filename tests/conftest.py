"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from irsma import channel
from irsma.config import IrsGeometry, Scenario


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_geometry():
    return IrsGeometry(num_y=4, num_z=4, spacing=0.03)


@pytest.fixture
def small_scenario():
    """Desk-scale scenario with a reduced surface for fast optimizer tests."""
    return Scenario(irs_num_y=8, irs_num_z=8, master_seed=11)


def rician_row(rng, geometry, scenario, distance=40.0):
    """One Rician surface-to-user row (M,) of `scenario`'s fading law, for a
    user `distance` metres along +x, with its fading drawn from `rng`."""
    normals = rng.standard_normal((1, 2, geometry.num_elements))
    return channel._rician_rows(geometry, [distance], [[1.0, 0.0, 0.0]], normals,
                                scenario.rician_factor, scenario.pathloss_exponent,
                                scenario.wavelength)[0]
