"""Replicated-experiment runner and statistical comparators.

Replicates are drawn in fixed-size chunks, each chunk on its own RNG stream,
and merged in chunk order, so results are bit-identical across worker counts
and scheduling. Comparators: empirical moments and pmf, total-variation
distance against exact pmfs, and a Kolmogorov-Smirnov distance to the
standard normal, whose CDF comes from math.erfc (used as a distance with
fixed thresholds, not a p-value).

Memory: the runner adds each chunk, as it arrives, into one vector of
integer counts, one per value from 0 to the largest drawn, and reads the
pmf, mean and variance from exact integer sums over it; a run holds that
vector and the few chunks in flight at any M, and one array of M values only
when the sample is kept, made from the counts once the chunks are merged.
The KS distance reads its points one run of equal values at a time, from a
sample or from (values, counts): besides one byte per point of a sample it
holds arrays as long as the number of distinct values, plus a sorted copy
only when its input is not sorted.
"""

from __future__ import annotations

import math
import os
from collections import deque
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
    """Moments and value counts of a replicate batch: counts[k] replicates
    equal k, for k from 0 to the largest."""

    count: int
    mean: float
    variance: float
    counts: np.ndarray = field(repr=False)
    sample: np.ndarray | None = field(default=None, repr=False)

    @property
    def pmf(self) -> np.ndarray:
        """The empirical pmf, counts / count, made on each access."""
        return self.counts / self.count


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
    the seed, and chunks are checked and counted in index order, so the
    summary is identical for any worker count. Every chunk must have the
    first chunk's dtype and hold nonnegative integer values. Each chunk is
    added into one int64 vector of value counts, grown in place to the
    largest value so far; the mean and variance are the correctly rounded
    quotients of exact integer sums over it (the mean has the bits of
    numpy's whenever the sum of the draws is below 2**53).
    Peak memory is that vector plus at most workers + 1 chunks in flight;
    with keep_sample the sample is built from the counts once the chunks
    are merged, each value repeated counts[value] times in the chunks'
    dtype: the draws, sorted. M or workers below 1 raises ValueError;
    workers None reads RI1D_WORKERS (:func:`default_workers`).
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

    def merge(chunks) -> tuple[np.ndarray, np.dtype]:
        counts = np.zeros(0, dtype=np.int64)
        dtype = None
        for j, _ in sizes:
            out = next(chunks)
            if dtype is None:
                dtype = out.dtype
            elif out.dtype != dtype:
                raise RuntimeError(
                    f"experiment {experiment.name!r} returned dtype {out.dtype} "
                    f"in chunk {j}, expected {dtype} as in chunk 0")
            values = out.astype(np.int64, copy=False)
            if values is not out and np.any(values != out):
                raise RuntimeError(f"experiment {experiment.name!r} is integer "
                                   "valued but produced non-integer values")
            if values.min() < 0:
                raise RuntimeError(f"experiment {experiment.name!r} produced "
                                   "negative integer values")
            top = int(values.max())
            if top >= len(counts):
                # in place, zero filled: nothing else refers to counts
                counts.resize(top + 1, refcheck=False)
            np.add.at(counts, values, 1)
            del out, values  # before the next chunk is drawn
        return counts, dtype

    if workers > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts, dtype = merge(_in_order(pool, draw, sizes, workers + 1))
    else:
        counts, dtype = merge(map(draw, sizes))
    s1, s2 = _moment_sums(counts, M)
    # int / int is correctly rounded; the mean is numpy's float(s1) / M
    # whenever s1 < 2**53
    mean = s1 / M
    variance = (M * s2 - s1 * s1) / (M * (M - 1)) if M > 1 else 0.0
    sample = None
    if keep_sample:
        live = np.flatnonzero(counts)
        sample = np.repeat(live.astype(dtype), counts[live])
    return EmpiricalSummary(count=M, mean=mean, variance=variance, counts=counts,
                            sample=sample)


def _in_order(pool: ThreadPoolExecutor, fn, jobs, ahead: int):
    """fn(job) for every job, run on pool and yielded in job order, with at
    most ``ahead`` jobs submitted and not yet yielded."""
    pending = deque()
    for job in jobs:
        pending.append(pool.submit(fn, job))
        if len(pending) == ahead:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _moment_sums(counts: np.ndarray, M: int) -> tuple[int, int]:
    """(sum of k counts[k], sum of k**2 counts[k]) as exact integers, over
    CHUNK_SIZE values k at a time.

    A slice's sums are taken in int64 when no term nor sum can reach 2**63,
    that is when max**2 * M < 2**63, max = len(counts) - 1; else in Python
    integers over the values drawn.
    """
    in_int64 = (len(counts) - 1) ** 2 * M < 2**63
    s1 = s2 = 0
    for lo in range(0, len(counts), CHUNK_SIZE):
        c = counts[lo:lo + CHUNK_SIZE]
        k = np.arange(lo, lo + len(c), dtype=np.int64)
        if in_int64:
            s1 += int(np.dot(k, c))
            s2 += int(np.dot(k * k, c))
        else:
            live = np.flatnonzero(c)
            for v, n in zip(k[live].tolist(), c[live].tolist()):
                s1 += v * n
                s2 += v * v * n
    return s1, s2


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


def ks_distance_to_normal(sample: np.ndarray,
                          counts: np.ndarray | None = None) -> float:
    """Sup distance between the empirical CDF and the standard normal CDF.

    The points are the sample, or with counts, counts[i] copies of
    sample[i] (counts: nonnegative integers of the sample's shape; values in
    any order, ties allowed). The input is not written; it is sorted into a
    copy only when it is not sorted already. Over a run i0..i1 of equal
    sorted values, with normal CDF phi = 0.5 erfc(-z/sqrt 2) taken once per
    run through math.erfc, the largest gaps are (i1 + 1)/m - phi above and
    phi - i0/m below: k/m and a - phi round monotonically, so the maximum
    over the runs has the bits of the maximum over all m points, and a
    sample and its (distinct values, counts) give the same bits.
    Standardized local times repeat (1e6 of them at x = 400 hold about
    87,000 distinct values). NaN raises ValueError; -inf and +inf have phi
    exactly 0 and 1.
    """
    z = np.asarray(sample, dtype=np.float64)
    if counts is not None:
        return _ks_from_counts(z, np.asarray(counts))
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
    return _ks_runs(z[first], first, m)


def _ks_from_counts(z: np.ndarray, counts: np.ndarray) -> float:
    """KS of counts[i] copies of z[i]: the runs of :func:`_ks_runs` from
    the cumulative counts of the sorted values."""
    if counts.shape != z.shape or not np.issubdtype(counts.dtype, np.integer):
        raise ValueError("KS counts must be integers of the sample's shape")
    if np.any(counts < 0):
        raise ValueError("KS counts must be nonnegative")
    live = counts > 0
    z, counts = z[live], counts[live].astype(np.int64)
    m = int(counts.sum())
    if m < 100:
        raise ValueError(f"need at least 100 points for KS, got {m}")
    if not np.all(z[:-1] <= z[1:]):  # NaN compares false, and sorts last
        order = np.argsort(z, kind="stable")
        z, counts = z[order], counts[order]
    if np.isnan(z[-1]):
        raise ValueError("KS sample holds NaN")
    first = np.cumsum(counts)
    first -= counts  # i0 of every value
    step = np.empty(len(z), dtype=bool)
    step[:1] = True
    np.not_equal(z[1:], z[:-1], out=step[1:])
    return _ks_runs(z[step], first[step], m)


def _ks_runs(value: np.ndarray, first: np.ndarray, m: int) -> float:
    """KS over the runs of equal values of m sorted points: value[i] and
    first[i] (int64) are run i's value and first index i0, in increasing
    order. value is overwritten."""
    gap = value
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
