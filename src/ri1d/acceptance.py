"""The thirteen-part acceptance suite behind ``ri1d selftest``.

Every check compares a sampler or an asymptotic formula against an exact
oracle at fixed desk scale, with fixed seeds and thresholds, and reports
:class:`~ri1d.mc.Verdict` objects. Checks 1-13 mirror the documented
tolerances; the suite is deterministic given (seed, workers).
"""

from __future__ import annotations

import math
import time
from contextvars import ContextVar

import numpy as np

from . import config, core_walks as cw, interlacements as il, ring_kernel as rk
from .capacity import IntervalSet
from .mc import (Experiment, Verdict, ks_distance_to_normal, run_replicates,
                 tv_distance)
from .rngs import RngState

DEFAULT_SEED = 7


#: Draws shared by the checks of one :func:`run_all` call, keyed by what
#: they draw; None outside run_all, where every check draws for itself.
_RUN_DRAWS: ContextVar[dict | None] = ContextVar("run_draws", default=None)


def _window_draw(seed: int, workers: int | None) -> tuple[float, np.ndarray]:
    """(empirical P[sites 1 and 2 vacant], empirical pmf of the visits to 3).

    The window draw of checks 01 and 02b: M = 1e5 windows at alpha = 1,
    L = 8, run once through the replicate harness as the codes
    2 V_3 + 1{sites 1 and 2 vacant}. It serves both checks once per
    :func:`run_all` call, which keeps only these two summaries, and each
    check called alone draws it for itself.
    """
    draws = _RUN_DRAWS.get()
    key = ("window", seed, workers)
    if draws is not None and key in draws:
        return draws[key]
    L = 8

    def sample(gen, m):
        counts, _, _ = il._simulate_window_batch(1.0, L, m, gen)
        vacant = (counts[:, L + 1] == 0) & (counts[:, L + 2] == 0)
        return 2 * counts[:, L + 3] + vacant

    M = 10**5
    counts = run_replicates(Experiment("window", sample), M, seed, workers).counts
    # the odd codes are the vacant windows; codes 2v and 2v + 1 have V_3 = v
    pairs = np.pad(counts, (0, len(counts) % 2)).reshape(-1, 2)
    law = int(pairs[:, 1].sum()) / M, pairs.sum(axis=1) / M
    if draws is not None:
        draws[key] = law
    return law


def check_01_vacant_window(seed: int, workers: int | None = None) -> list[Verdict]:
    """Empirical P[{0,2} vacant] from the window sampler vs exp(-1)."""
    alpha = 1.0
    p_hat, _ = _window_draw(seed, workers)
    target = il.vacant_prob_exact(IntervalSet(0, 2), alpha)
    return [Verdict("01 vacant-set law", abs(p_hat - target), 0.006,
                    f"p_hat={p_hat:.6f} vs e^-1={target:.6f}")]


def check_02_local_time_law(seed: int, workers: int | None = None) -> list[Verdict]:
    """TV of the direct and window local-time samplers against the exact pmf."""
    alpha, x = 1.0, 3
    law = il.local_time_pmf(x, alpha)
    direct = run_replicates(
        Experiment("local-time", lambda g, m: il.sample_local_times(x, alpha, m, g)),
        10**6, seed, workers)
    _, window = _window_draw(seed, workers)
    return [
        Verdict("02a local-time TV (direct sampler)", tv_distance(direct, law),
                0.005, f"x={x}, M=1e6"),
        Verdict("02b local-time TV (window sampler)", tv_distance(window, law),
                0.01, f"x={x}, L=8, M=1e5"),
    ]


def check_03_moments(seed: int, workers: int | None = None) -> list[Verdict]:
    """Empirical mean and variance of the local time at x=5 vs closed forms."""
    alpha, x, M = 1.0, 5, 10**6
    summary = run_replicates(
        Experiment("local-time", lambda g, m: il.sample_local_times(x, alpha, m, g)),
        M, seed, workers)
    mean, var = il.local_time_mean(x, alpha), il.local_time_variance(x, alpha)
    return [
        Verdict("03a local-time mean", abs(summary.mean / mean - 1), 0.005,
                f"{summary.mean:.4f} vs {mean}"),
        Verdict("03b local-time variance", abs(summary.variance / var - 1), 0.02,
                f"{summary.variance:.2f} vs {var}"),
    ]


def clt_verdict(name: str, alpha: float, x: int, M: int, seed: int,
                workers: int | None, context: str) -> Verdict:
    """KS distance of M standardized local times at x to the normal, against 0.02."""
    counts = run_replicates(
        Experiment("local-time", lambda g, m: il.sample_local_times(x, alpha, m, g)),
        M, seed, workers).counts
    k = np.flatnonzero(counts)
    z = il.standardize_local_time(k, x, alpha)
    return Verdict(name, ks_distance_to_normal(z, counts[k]), 0.02, context)


def check_04_clt(seed: int, workers: int | None = None) -> list[Verdict]:
    """KS distance of standardized local times at x=400 to the normal."""
    alpha, x, M = 1.0, 400, 10**5
    return [clt_verdict("04 CLT (KS to normal)", alpha, x, M, seed, workers,
                        f"x={x}, M=1e5")]


def check_05_kernel_oracle(seed: int, workers: int | None = None) -> list[Verdict]:
    """Spectral and recursion kernels agree to 1e-9 relative on a dense grid."""
    worst = 0.0
    for n in range(3, 25):
        # every step of the recursion: SurvivalKernel stops at the settled row
        log_abs, sign = rk.h_spectral_log(n, np.arange(1, n), np.arange(201))
        sp = sign * np.exp(log_abs)
        s0 = 0
        for rows in rk._killed_walk(n, 200):  # its 7 runs, rows s0..s0+k
            dp = rows[:, 1:n]
            rel = np.abs(sp[s0:s0 + len(rows)] - dp) / np.maximum(dp, 1e-300)
            worst = max(worst, float(rel.max()))
            s0 += len(rows) - 1
    return [Verdict("05 kernel backend equivalence", worst, 1e-9,
                    "n in [3,24], t in [0,200]")]


def check_06_first_mode(seed: int, workers: int | None = None) -> list[Verdict]:
    """|h/T1 - 1| within 10/n^2 at the regime horizon, decreasing in n."""
    devs = []
    out = []
    for n in (32, 64, 128):
        t = math.ceil(config.cond_threshold(n))
        dev = rk.h_over_t1_deviation(n, n // 2, t)
        devs.append(dev)
        out.append(Verdict(f"06 first-mode deviation n={n}", dev,
                           config.first_mode_rel_tol(n), f"t={t}"))
    out.append(Verdict("06 first-mode deviation decreasing",
                       max(d2 - d1 for d1, d2 in zip(devs, devs[1:])),
                       0.0, "n=32 -> 64 -> 128"))
    return out


def check_07_ring_vacant(seed: int, workers: int | None = None) -> list[Verdict]:
    """Ring vacant-interval probability: extrapolated limit, and MC vs exact.

    07a. Let s = a + b and r_n = exact_n / exp(-alpha s/2), where exact_n is
    the exact probability that [-a, b] stays vacant on the ring of n sites
    from x0 = n/2 at the horizon t = alpha n^3 / (2 pi^2). The first mode gives

        log r_n ~ -(alpha s/2) [(1 - s/2n) / (1 - s/n)^2 - 1]
                = -3 alpha s^2 / (4n) + O(n^-2),

    so r_40 sits 17% below 1. One Richardson step on the same oracle removes
    the 1/n term: the statistic is |(2 r_80 - r_40) - 1| = O(n^-2).

    07b. The conditioned ring sampler at n = 40 against exact_40, within
    four binomial standard errors.
    """
    n, alpha, x0, a, b = 40, 1.0, 20, 1, 2
    t = rk.ring_time_scale(n, alpha)
    exact = rk.vacant_prob_ring_exact(n, t, x0, a, b)
    limit = math.exp(-alpha * (a + b) / 2)
    r_n = exact / limit
    r_2n = rk.vacant_prob_ring_exact(2 * n, rk.ring_time_scale(2 * n, alpha),
                                     2 * x0, a, b) / limit
    kernel = rk.SurvivalKernel(n, t)

    def sample(gen, m):
        _, inside = rk._ring_paths_batch(kernel, x0, t, m, gen,
                                         stay_in=(b, n - a))
        return inside.astype(np.int64)

    M = 2 * 10**4
    summary = run_replicates(Experiment("ring-vacant", sample), M, seed, workers)
    sigma = math.sqrt(exact * (1 - exact) / M)
    return [
        Verdict("07a ring vacant exact vs limit", abs(2 * r_2n - r_n - 1), 0.03,
                f"2*r80-r40 vs 1; r40={r_n:.6f}, r80={r_2n:.6f}, "
                f"exact40={exact:.6f}, e^-1.5={limit:.6f}"),
        Verdict("07b ring vacant MC vs exact", abs(summary.mean - exact),
                4 * sigma, f"p_hat={summary.mean:.6f}, M=2e4"),
    ]


def check_08_ring_local_time(seed: int, workers: int | None = None) -> list[Verdict]:
    """Ring local time at x=2 matches the interlacement local-time law."""
    n_half, alpha, x, M = 24, 1.0, 2, 2 * 10**4
    summary = run_replicates(
        Experiment("ring-local-time",
                   lambda g, m: rk.ring_local_time_batch(n_half, alpha, x, m, g)),
        M, seed, workers)
    law = il.local_time_pmf(x, alpha)
    t = rk.ring_time_scale(2 * n_half, alpha)
    return [Verdict("08 ring local-time TV", tv_distance(summary, law), 0.05,
                    f"2n={2 * n_half}, t={t}, M=2e4")]


def check_09_pi4(seed: int, workers: int | None = None) -> list[Verdict]:
    """Exact conditional expectation of sin(pi X/n) approaches pi/4."""
    n = 200
    delta = math.ceil(config.cond_threshold(n))
    out = []
    for a in (1, 50, 100):
        val, _ = rk.verify_pi4(n, delta, a)
        out.append(Verdict(f"09 pi/4 expectation a={a}",
                           abs(val / (math.pi / 4) - 1),
                           config.first_mode_rel_tol(n), f"n={n}, delta={delta}"))
    return out


def check_10_no_hit(seed: int, workers: int | None = None) -> list[Verdict]:
    """Probability a site stays unvisited for the first leg vs its asymptotic."""
    n_half, x = 60, 1
    delta = math.ceil(config.cond_threshold(2 * n_half))
    t = 2 * delta
    exact, asym, _ = rk.no_hit_prob_exact(n_half, t, delta, x)
    return [Verdict("10 no-hit exact vs asymptotic", abs(exact / asym - 1),
                    config.no_hit_rel_tol(n_half),
                    f"n={n_half}, delta={delta}, x={x}")]


def check_11_mid_tail(seed: int, workers: int | None = None) -> list[Verdict]:
    """Mid-interval escape tail stays below the cosine bound."""
    n_half = 40
    delta = math.ceil(config.cond_threshold(2 * n_half))
    t = 2 * delta
    slack = 1 + config.mid_tail_slack(n_half)
    worst = 0.0
    for x in (10, 20, 30):
        exact, bound = rk.mid_tail_check(n_half, t, delta, x)
        worst = max(worst, exact / bound)
    return [Verdict("11 mid-interval tail bound", worst, slack,
                    f"n={n_half}, delta={delta}, x in (10,20,30); ratio vs bound")]


def endpoint_lattice_asymptotic(x: int, delta: int, y: int) -> float:
    """Local-limit value of P[X_delta <= y] for the conditioned walk from x.

    As delta -> infinity at fixed x and y, each endpoint k with
    k = x + delta (mod 2) has P[X_delta = k] ~ 2 sqrt(2/pi) k^2 / delta^{3/2},
    and no other endpoint is reachable. Summed exactly over those k <= y this
    is sqrt(2/pi) y*(y*+1)(y*+2) / (3 delta^{3/2}), with y* the largest such
    k <= y; the relative error is O(y^2/delta).
    """
    top = y - (y - x - delta) % 2
    return math.sqrt(2 / math.pi) * top * (top + 1) * (top + 2) / (3 * delta**1.5)


def check_12_path_counting(seed: int, workers: int | None = None) -> list[Verdict]:
    """Reflection counts vs enumeration, and the endpoint local limit.

    12a. :func:`~ri1d.core_walks.count_paths` against brute-force enumeration.

    12b. The exact P[X_delta <= y] at x = 2, delta = 10^4, y = 10 against
    :func:`endpoint_lattice_asymptotic`, whose error is O(y^2/delta) = 1%.
    The smooth form sqrt(2/pi) y^3 / (3 delta^{3/2}) returned by
    :func:`~ri1d.core_walks.endpoint_leq_prob` is the y -> infinity limit of
    that lattice sum; at fixed y it is off by the factor y*(y*+1)(y*+2)/y^3,
    which is 1.32 here, so their ratio is reported in the context only.
    """
    mismatches = 0
    starts = range(1, 7)
    for delta in range(0, 15):
        # one pass over the 2**delta step sequences serves every start
        for x, counts in zip(starts, cw.enumerate_paths(starts, delta)):
            for k in range(1, x + delta + 1):
                if cw.count_paths(x, delta, k) != counts[k]:
                    mismatches += 1
    x, delta, y = 2, 10**4, 10
    exact, asym = cw.endpoint_leq_prob(x, delta, y)
    lattice = endpoint_lattice_asymptotic(x, delta, y)
    return [
        Verdict("12a path counting exhaustive", float(mismatches), 0.0,
                "delta <= 14, x in [1,6]"),
        Verdict("12b endpoint exact vs asymptotic", abs(exact / lattice - 1), 0.02,
                f"exact={exact:.6g}, lattice={lattice:.6g}, "
                f"smooth={asym:.6g} (exact/smooth={exact / asym:.4f})"),
    ]


def check_13_exact_identities(seed: int, workers: int | None = None) -> list[Verdict]:
    """Martingale defect, first-step consistency, and hitting-law Monte Carlo."""
    xs = np.unique(np.concatenate([
        np.arange(2, 1002), np.geomspace(2, 10**6, 4000).astype(np.int64)]))
    defect = float(np.max(cw.martingale_defect(xs) * xs))

    # first-step recursions of the closed forms
    worst = 0.0
    for x in range(1, 10**4, 97):
        # down-step returns a.s.; up-step returns with probability x/(x+1)
        ret = cw.step_down_prob(x) + cw.step_up_prob(x) * cw.hit_prob(x + 1, x)
        worst = max(worst, abs(ret - (1 - cw.escape_prob(x))))
    for y in range(3, 199):
        lhs = cw.hit_prob(y, 2)
        rhs = cw.step_up_prob(y) * cw.hit_prob(y + 1, 2) + \
            cw.step_down_prob(y) * cw.hit_prob(y - 1, 2)
        worst = max(worst, abs(rhs / lhs - 1))
    x, N = 3, 30
    for y in range(x + 1, N):
        lhs = cw.hit_before_prob(y, x, N)
        up = cw.hit_before_prob(y + 1, x, N) if y + 1 < N else 0.0
        down = cw.hit_before_prob(y - 1, x, N) if y - 1 > x else 1.0
        rhs = cw.step_up_prob(y) * up + cw.step_down_prob(y) * down
        worst = max(worst, abs(rhs / lhs - 1))

    M = 10**5
    out = [
        Verdict("13a martingale defect * x", defect, 1e-14, "x in [2, 1e6]"),
        Verdict("13b first-step consistency", worst, 1e-14,
                "escape/hitting closed forms"),
    ]
    p = cw.hit_before_prob(5, 2, 12)
    est = cw.simulate_hit_before(5, 2, 12, M, RngState(seed, 101))
    out.append(Verdict("13c hit-before MC", abs(est - p),
                       4 * math.sqrt(p * (1 - p) / M), f"target {p:.4f}"))
    p = cw.hit_prob(5, 2)
    est = cw.estimate_hit_prob(5, 2, M, RngState(seed, 102))
    out.append(Verdict("13d ever-hit MC", abs(est - p),
                       4 * math.sqrt(p * (1 - p) / M), f"target {p:.4f}"))
    p = cw.escape_prob(3)
    est = cw.estimate_escape_prob(3, M, RngState(seed, 103))
    out.append(Verdict("13e escape MC", abs(est - p),
                       4 * math.sqrt(p * (1 - p) / M), f"target {p:.4f}"))
    return out


ALL_CHECKS = [
    check_01_vacant_window,
    check_02_local_time_law,
    check_03_moments,
    check_04_clt,
    check_05_kernel_oracle,
    check_06_first_mode,
    check_07_ring_vacant,
    check_08_ring_local_time,
    check_09_pi4,
    check_10_no_hit,
    check_11_mid_tail,
    check_12_path_counting,
    check_13_exact_identities,
]


def run_all(seed: int = DEFAULT_SEED, workers: int | None = None
            ) -> tuple[list[Verdict], list[tuple[str, float]]]:
    """Run checks 1-13; return every verdict and one (check name, wall
    seconds) row per check.

    Checks 01 and 02b share one window draw (:func:`_window_draw`), which
    lives only as long as this call.
    """
    verdicts: list[Verdict] = []
    timings: list[tuple[str, float]] = []
    token = _RUN_DRAWS.set({})
    try:
        for check in ALL_CHECKS:
            start = time.perf_counter()
            verdicts.extend(check(seed, workers))
            timings.append((check.__name__, time.perf_counter() - start))
    finally:
        _RUN_DRAWS.reset(token)
    return verdicts, timings
