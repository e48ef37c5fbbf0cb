"""Replicated-experiment runner and statistical comparators.

Replicates are drawn in fixed-size chunks, each chunk on its own RNG stream,
and merged in chunk order, so results are bit-identical across worker counts
and scheduling. Comparators: empirical moments and pmf, total-variation
distance against exact pmfs, and a Kolmogorov-Smirnov distance to the
standard normal, whose CDF comes from math.erfc (used as a distance with
fixed thresholds, not a p-value).

Memory: the runner copies each chunk into one array of M values as it
arrives, so a run holds that array, numpy's temporary of M floats inside the
variance, and the few chunks in flight. The KS distance reads the sorted
sample one run of equal values at a time: besides one byte per point it
holds arrays as long as the number of distinct values, plus a sorted copy
only when its input is not sorted.
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
    """Worker count from RI1D_WORKERS, 1 when it is unset or empty.

    Raises ValueError when it is set to anything but a positive integer.
    """
    raw = os.environ.get("RI1D_WORKERS", "")
    try:
        workers = int(raw) if raw else 1
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"RI1D_WORKERS must be a positive integer, got {raw!r}")
    return workers


def run_replicates(experiment: Experiment, M: int, seed: int,
                   workers: int | None = None,
                   keep_sample: bool = False) -> EmpiricalSummary:
    """Draw M replicates of the experiment, deterministically under seed.

    Work is split into CHUNK_SIZE pieces; chunk j always runs on stream j of
    the seed, and chunks are copied in index order into one array of M
    values, so the summary is identical for any worker count. Every chunk
    must have the first chunk's dtype. Peak memory is that array plus
    numpy's variance temporary of M floats plus the chunks in flight (and a
    second array of M values when the draws are not int64); with
    keep_sample the array is sorted in place and kept as the sample. M or
    workers below 1 raises ValueError; workers None reads RI1D_WORKERS
    (:func:`default_workers`).
    """
    if M < 1:
        raise ValueError(f"need M >= 1, got {M}")
    if workers is None:
        workers = default_workers()
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
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

    def merge(chunks) -> np.ndarray:
        data = None
        for (j, m), out in zip(sizes, chunks):
            if data is None:
                data = np.empty(M, dtype=out.dtype)
            elif out.dtype != data.dtype:
                raise RuntimeError(
                    f"experiment {experiment.name!r} returned dtype {out.dtype} "
                    f"in chunk {j}, expected {data.dtype} as in chunk 0")
            data[j * CHUNK_SIZE:j * CHUNK_SIZE + m] = out
        return data

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            data = merge(pool.map(draw, sizes))
    else:
        data = merge(map(draw, sizes))
    values = data.astype(np.int64, copy=False)
    if values is not data and np.any(values != data):
        raise RuntimeError(f"experiment {experiment.name!r} is integer "
                           "valued but produced non-integer values")
    if values.min() < 0:
        raise RuntimeError(f"experiment {experiment.name!r} produced "
                           "negative integer values")
    mean = float(data.mean())
    variance = float(data.var(ddof=1)) if M > 1 else 0.0
    pmf = np.bincount(values) / M
    if keep_sample:
        data.sort()
    return EmpiricalSummary(count=M, mean=mean, variance=variance, pmf=pmf,
                            sample=data if keep_sample else None)


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


def ks_distance_to_normal(sample: np.ndarray) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF.

    The input is not written; it is sorted into a copy only when it is not
    sorted already. Over a run i0..i1 of equal sorted values, with normal
    CDF phi = 0.5 erfc(-z/sqrt 2) taken once per run through math.erfc, the
    largest gaps are (i1 + 1)/m - phi above and phi - i0/m below: k/m and
    a - phi round monotonically, so the maximum over the runs has the bits
    of the maximum over all m points. Standardized local times repeat (1e6
    of them at x = 400 hold about 87,000 distinct values). NaN raises
    ValueError; -inf and +inf have phi exactly 0 and 1.
    """
    z = np.asarray(sample, dtype=np.float64)
    m = len(z)
    if m < 100:
        raise ValueError(f"need at least 100 points for KS, got {m}")
    step = np.empty(m, dtype=bool)
    step[:1] = True
    # NaN compares false, so a sample holding one is sorted into a copy,
    # which puts every NaN at the end
    if not np.less_equal(z[:-1], z[1:], out=step[1:]).all():
        z = np.sort(z)
    if np.isnan(z[-1]):
        raise ValueError("KS sample holds NaN")
    np.not_equal(z[1:], z[:-1], out=step[1:])
    first = np.flatnonzero(step)  # i0 of every run
    del step
    gap = z[first]
    np.negative(gap, out=gap)
    gap /= math.sqrt(2.0)
    phi = np.fromiter(map(math.erfc, memoryview(gap)), dtype=np.float64,
                      count=len(gap))
    phi *= 0.5
    np.subtract(phi, np.divide(first, m, out=gap), out=gap)
    lower = gap.max()
    # i1 + 1 of every run: the next run's i0, and m for the last run
    np.divide(first[1:], m, out=gap[:-1])
    gap[-1] = 1.0
    return float(max(np.subtract(gap, phi, out=gap).max(), lower))
