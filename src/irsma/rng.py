"""Deterministic RNG substreams.

One master seed drives the whole experiment. Every stochastic draw happens in a
named substream keyed by (master_seed, *tags) so that schemes compared within a
realization see identical channels and no cell's draws depend on the cells
run before it.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_to_int(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    return zlib.crc32(str(tag).encode("utf-8"))


def substream(master_seed: int, *tags) -> np.random.Generator:
    """Return a generator that is a pure function of (master_seed, tags)."""
    key = tuple(_tag_to_int(t) for t in tags)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(master_seed), spawn_key=key))
