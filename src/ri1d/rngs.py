"""Seed/stream discipline for all samplers.

Every sampler in this package is handed its randomness; nothing keeps hidden
generator state. The single-draw samplers and the Monte Carlo estimators
(``sample_window``, ``sample_ring_path``, ``simulate_hit_before``,
``estimate_hit_prob``, ``estimate_escape_prob``) take an :class:`RngState`.
The batch samplers (``sample_local_times``, ``_simulate_window_batch``,
``ring_local_time_batch``) take a ``numpy.random.Generator``: the replicate
harness builds one from the ``RngState`` of each chunk's stream. Each draws
its uniforms in a fixed order. ``sample_local_times`` draws one uniform
per local time, in order, where the exact table of the local time's law
fits its budget (small x); otherwise its M Poisson trajectory counts, then
one negative binomial per count. ``_simulate_window_batch`` draws its 2M
Poisson counts, then one negative binomial per count at each level of its
chain, the entry draw at L first, then levels L, ..., 2. A batch of Poisson
counts whose exact table fits its budget draws one uniform per count, in
order; otherwise numpy's poisson draws them (a single window's two counts).
A batch of negative binomials whose exact table fits its budget draws one
uniform per count, in order, counts of 0 included; otherwise numpy's
negative_binomial draws for the positive counts. A batch whose counts are
all 0 draws nothing. A table fits its budget when it has at most as many
cells as the batch has draws.
``sample_ring_path`` draws one uniform per step. The absorbing conditioned
walk behind ``simulate_hit_before``, ``estimate_hit_prob`` and
``estimate_escape_prob`` draws one uniform per live walker per law, in walker
order: absorbed at two sites, one law per block of 32 steps; absorbed at
one site, one law for every step still to go, or for as many as its cells
allow, so ``estimate_hit_prob`` draws once per walker and
``estimate_escape_prob`` once per walker and leg. The conditioned ring
walk behind ``ring_local_time_batch`` and the ring vacant-set checks draws
one uniform per walker, in walker order, per law of its schedule: a
super-block of 2**j settled blocks, the remainder of the settled blocks,
then each later block of 32 steps and the short last block.

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
