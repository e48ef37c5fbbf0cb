"""Seed/stream discipline for all samplers.

Every sampler in this package takes an explicit :class:`RngState`; nothing
keeps hidden generator state. A state is a (seed, stream) pair; the same pair
always reproduces the same draws, and distinct stream indices give
independent-in-practice substreams (PCG64 seeded through ``SeedSequence`` with
the stream index as spawn key).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngState:
    """Deterministic (seed, stream) handle for a random substream."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ValueError("seed and stream must be nonnegative")

    def generator(self) -> np.random.Generator:
        """Fresh generator for this (seed, stream); repeated calls are identical."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream,))
        return np.random.Generator(np.random.PCG64(ss))
