"""Seed/stream discipline for all samplers.

Every sampler in this package is handed its randomness; nothing keeps hidden
generator state. The single-draw samplers and the Monte Carlo estimators
(``sample_window``, ``sample_ring_path``, ``simulate_hit_before``,
``estimate_hit_prob``, ``estimate_escape_prob``) take an :class:`RngState`.
The batch samplers (``sample_local_times``, ``_simulate_window_batch``,
``ring_local_time_batch``) take a ``numpy.random.Generator``: the replicate
harness builds one from the ``RngState`` of each chunk's stream.

A state is a (seed, stream) pair; the same pair always reproduces the same
draws, and distinct stream indices give independent-in-practice substreams
(PCG64 seeded through ``SeedSequence`` with the stream index as spawn key).
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
