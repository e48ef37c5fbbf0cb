"""Replicated-experiment runner and statistical comparators.

Replicates are drawn in fixed-size chunks, each chunk on its own RNG stream,
and merged in chunk order, so results are bit-identical across worker counts
and scheduling. Comparators: empirical moments and pmf, total-variation
distance against exact pmfs, and a Kolmogorov-Smirnov distance to the
standard normal, whose CDF comes from math.erfc (used as a distance with
fixed thresholds, not a p-value).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .rngs import RngState

#: Replicates per RNG stream; fixed so the stream layout (and hence every
#: draw) is independent of the worker count.
CHUNK_SIZE = 65536


@dataclass(frozen=True)
class Experiment:
    """A named sampler: (generator, batch size) -> 1-d array of draws.

    Draws must be nonnegative integers, in any numeric dtype.
    """

    name: str
    sample: Callable[[np.random.Generator, int], np.ndarray]


@dataclass(frozen=True)
class EmpiricalSummary:
    """Moments and empirical pmf of a replicate batch."""

    count: int
    mean: float
    variance: float
    pmf: np.ndarray
    sample: np.ndarray | None = field(default=None, repr=False)


@dataclass(frozen=True)
class Verdict:
    """One acceptance check: passes iff statistic <= threshold."""

    name: str
    statistic: float
    threshold: float
    context: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.threshold)

    @property
    def margin(self) -> float:
        """threshold - statistic: nonnegative iff the verdict passes."""
        return self.threshold - self.statistic

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        ctx = f" [{self.context}]" if self.context else ""
        return (f"{state} {self.name}: statistic {self.statistic:.6g} vs "
                f"threshold {self.threshold:.6g}{ctx}")


def default_workers() -> int:
    """Worker count from RI1D_WORKERS, defaulting to 1."""
    raw = os.environ.get("RI1D_WORKERS", "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_replicates(experiment: Experiment, M: int, seed: int,
                   workers: int | None = None,
                   keep_sample: bool = False) -> EmpiricalSummary:
    """Draw M replicates of the experiment, deterministically under seed.

    Work is split into CHUNK_SIZE pieces; chunk j always runs on stream j of
    the seed, and chunks are concatenated in index order, so the summary is
    identical for any worker count.
    """
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    if workers is None:
        workers = default_workers()
    sizes = [(j, min(CHUNK_SIZE, M - j * CHUNK_SIZE))
             for j in range((M + CHUNK_SIZE - 1) // CHUNK_SIZE)]

    def draw(job):
        j, m = job
        out = np.asarray(experiment.sample(RngState(seed, j).generator(), m))
        if out.shape != (m,):
            raise RuntimeError(
                f"experiment {experiment.name!r} returned shape {out.shape}, "
                f"expected ({m},)")
        return out

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(draw, sizes))
    else:
        chunks = [draw(job) for job in sizes]
    data = np.concatenate(chunks)
    values = data.astype(np.int64)
    if np.any(values != data):
        raise RuntimeError(f"experiment {experiment.name!r} is integer "
                           "valued but produced non-integer values")
    if np.any(values < 0):
        raise RuntimeError(f"experiment {experiment.name!r} produced "
                           "negative integer values")
    return EmpiricalSummary(
        count=M,
        mean=float(data.mean()),
        variance=float(data.var(ddof=1)) if M > 1 else 0.0,
        pmf=np.bincount(values) / M,
        sample=np.sort(data) if keep_sample else None,
    )


def _as_pmf(obj) -> np.ndarray:
    if hasattr(obj, "pmf"):  # EmpiricalSummary or LocalTimeLaw
        return np.asarray(obj.pmf, dtype=np.float64)
    return np.asarray(obj, dtype=np.float64)


def tv_distance(emp, ref) -> float:
    """Total variation: half the L1 distance, with supports zero-padded."""
    p = _as_pmf(emp)
    q = _as_pmf(ref)
    size = max(len(p), len(q))
    p = np.pad(p, (0, size - len(p)))
    q = np.pad(q, (0, size - len(q)))
    # mass beyond the longer support (e.g. a truncated exact pmf) counts too
    slack = abs(float(p.sum()) - float(q.sum()))
    return 0.5 * (float(np.abs(p - q).sum()) + slack)


def _normal_cdf_sorted(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF 0.5 erfc(-z/sqrt 2) of a sorted array.

    Each run of equal values is evaluated once, through math.erfc, and the
    values are spread back over their runs: standardized local times repeat
    (1e6 of them at x = 400 hold about 87,000 distinct values).
    """
    start = np.empty(len(z), dtype=bool)
    start[:1] = True
    np.not_equal(z[1:], z[:-1], out=start[1:])
    u = (-z[start] / math.sqrt(2.0)).tolist()
    phi = 0.5 * np.fromiter(map(math.erfc, u), dtype=np.float64, count=len(u))
    return phi[np.cumsum(start) - 1]


def ks_distance_to_normal(sample: np.ndarray) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF."""
    z = np.sort(np.asarray(sample, dtype=np.float64))
    m = len(z)
    if m < 100:
        raise ValueError(f"need at least 100 points for KS, got {m}")
    phi = _normal_cdf_sorted(z)
    upper = np.arange(1, m + 1) / m - phi
    lower = phi - np.arange(0, m) / m
    return float(max(upper.max(), lower.max()))
