"""Acceptance suite: one test per criterion, printing one verdict line each.

Run with ``pytest -s`` to see the PASS/FAIL lines as they are produced; the
same checks back ``ri1d selftest``.
"""

import math

import numpy as np
import pytest

from ri1d import acceptance
from ri1d import core_walks as cw
from ri1d import interlacements as il
from ri1d import ring_kernel as rk
from ri1d.mc import Experiment, ks_distance_to_normal, run_replicates, tv_distance
from ri1d.rngs import RngState

SEED = acceptance.DEFAULT_SEED


def _run(check):
    verdicts = check(SEED)
    for v in verdicts:
        print(v.line())
    failed = [v for v in verdicts if not v.passed]
    assert not failed, "; ".join(v.line() for v in failed)


def test_criterion_01_vacant_set_law():
    _run(acceptance.check_01_vacant_window)


def test_criterion_02_local_time_law():
    _run(acceptance.check_02_local_time_law)


def test_criterion_03_moments():
    _run(acceptance.check_03_moments)


def test_criterion_04_clt():
    _run(acceptance.check_04_clt)


def test_criterion_05_kernel_oracle_equivalence():
    _run(acceptance.check_05_kernel_oracle)


def test_criterion_06_first_mode_regime():
    _run(acceptance.check_06_first_mode)


def test_criterion_07_ring_vacant_desk_scale():
    # 07a: the exact ratio to the limit e^{-1.5}, extrapolated from n=40 and
    # n=80 past its 1/n term (17% at n=40); 07b: sampler vs exact oracle.
    _run(acceptance.check_07_ring_vacant)


def test_criterion_08_ring_local_time():
    _run(acceptance.check_08_ring_local_time)


def test_criterion_09_pi4():
    _run(acceptance.check_09_pi4)


def test_criterion_10_no_hit():
    _run(acceptance.check_10_no_hit)


def test_criterion_11_mid_tail():
    _run(acceptance.check_11_mid_tail)


def test_criterion_12_path_counting():
    # 12b: the exact endpoint law at y=10 against its lattice local limit,
    # which the smooth y^3 form misses by the parity factor 1.32.
    _run(acceptance.check_12_path_counting)


def test_criterion_13_exact_identities():
    _run(acceptance.check_13_exact_identities)


@pytest.mark.parametrize("check", [acceptance.check_01_vacant_window,
                                   acceptance.check_02_local_time_law,
                                   acceptance.check_07_ring_vacant,
                                   acceptance.check_08_ring_local_time])
def test_statistics_independent_of_worker_count(check):
    one, two = check(SEED, workers=1), check(SEED, workers=2)
    assert [(v.name, v.statistic) for v in one] == [(v.name, v.statistic) for v in two]


def test_selftest_aggregates_everything():
    verdicts, timings = acceptance.run_all(SEED)
    assert [name for name, _ in timings] == [
        check.__name__ for check in acceptance.ALL_CHECKS]
    names = {v.name for v in verdicts}
    assert len(names) == len(verdicts) == 26
    failed = [v.line() for v in verdicts if not v.passed]
    assert not failed, "; ".join(failed)


def test_checks_01_and_02_share_one_window_draw(monkeypatch):
    # run_all draws the window sample of checks 01 and 02b once, as its two
    # harness chunks, and a second run_all draws it again; each check called
    # alone draws for itself and gives the verdicts it gives in run_all
    chunks = []
    draw = il._simulate_window_batch

    def record(alpha, L, M, gen):
        chunks.append(M)
        return draw(alpha, L, M, gen)

    monkeypatch.setattr(il, "_simulate_window_batch", record)
    runs = []
    for _ in range(2):
        runs.append(acceptance.run_all(SEED, 1)[0])
        assert chunks == [65536, 34464]
        chunks.clear()
    assert runs[0] == runs[1]
    alone = []
    for check in (acceptance.check_01_vacant_window, acceptance.check_02_local_time_law):
        alone += check(SEED, 1)
        assert chunks == [65536, 34464]
        chunks.clear()
    assert alone == [v for v in runs[0] if v.name[:2] in ("01", "02")]


@pytest.mark.parametrize("seed", [7, 88])
def test_counted_statistics_match_the_kept_sample(seed):
    # 01's p_hat, 02b's pmf and 04's KS from the harness counts have the
    # bits of the same draws kept as a sample
    L, x = 8, 400

    def window(gen, m):
        counts, _, _ = il._simulate_window_batch(1.0, L, m, gen)
        vacant = (counts[:, L + 1] == 0) & (counts[:, L + 2] == 0)
        return 2 * counts[:, L + 3] + vacant

    codes = run_replicates(Experiment("window", window), 10**5, seed, 1,
                           keep_sample=True).sample
    p_hat, pmf = acceptance._window_draw(seed, 1)
    assert p_hat.hex() == float(np.mean(codes & 1)).hex()
    assert pmf.tobytes() == (np.bincount(codes >> 1) / len(codes)).tobytes()
    sample = run_replicates(
        Experiment("local-time", lambda g, m: il.sample_local_times(x, 1.0, m, g)),
        10**5, seed, 1, keep_sample=True).sample
    ks = ks_distance_to_normal(il.standardize_local_time(sample, x, 1.0))
    assert acceptance.clt_verdict("04", 1.0, x, 10**5, seed, 1, "").statistic.hex() \
        == ks.hex()


def test_run_all_keeps_no_sample(monkeypatch):
    calls = []

    def spy(experiment, M, seed, workers=None, keep_sample=False):
        calls.append(keep_sample)
        return run_replicates(experiment, M, seed, workers, keep_sample)

    monkeypatch.setattr(acceptance, "run_replicates", spy)
    acceptance.run_all(SEED, 1)
    assert len(calls) == 6 and not any(calls)


def test_ring_vacant_first_order_correction():
    # n (r_n - 1) -> -3 alpha s^2 / 4: the 1/n term that 07a extrapolates away
    alpha, a, b = 1.0, 1, 2
    s = a + b
    for n in (80, 160, 320, 640):
        t = rk.ring_time_scale(n, alpha)
        r = rk.vacant_prob_ring_exact(n, t, n // 2, a, b) / math.exp(-alpha * s / 2)
        assert n * (r - 1) == pytest.approx(-3 * alpha * s**2 / 4, rel=0.03)


@pytest.mark.parametrize("x, delta, y", [(2, 10**4, 10), (3, 10**4, 10),
                                         (2, 10**4, 11), (3, 10**4 + 1, 9),
                                         (1, 4000, 7)])
def test_endpoint_lattice_asymptotic(x, delta, y):
    # both parities of x and y; the residual is O(y^2 / delta)
    exact, _ = cw.endpoint_leq_prob(x, delta, y)
    assert exact == pytest.approx(acceptance.endpoint_lattice_asymptotic(x, delta, y),
                                  rel=0.02)


def _binomial_tail_rate(M, p, threshold):
    """P[|K / M - p| > threshold] for K ~ Binomial(M, p), summed from
    log-gamma pmf terms."""
    k = np.arange(M + 1)
    log_pmf = (math.lgamma(M + 1) - np.array([math.lgamma(i + 1) + math.lgamma(M - i + 1)
                                              for i in range(M + 1)])
               + k * math.log(p) + (M - k) * math.log1p(-p))
    pmf = np.exp(log_pmf)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-8)
    return pmf[np.abs(k / M - p) > threshold].sum()


def test_02b_null_false_alarm_rate():
    # the TV statistics of 02b and 02a under the exact law, with no sampler
    # involved: 2,000 multinomial draws of each check's M from
    # local_time_pmf(3, 1). For 02b (M = 1e5) 10 of them (0.5%) pass its
    # threshold 0.01, the rate at which a correct window sampler fails 02b
    # (0.62% over 40,000 such draws); the statistic's median is 0.0075.
    # For 02a (M = 1e6) none pass 0.005: the median is 0.00238 and the 99th
    # percentile 0.00312
    law = il.local_time_pmf(3, 1.0)
    draws = 2000
    for M, threshold, want in ((10**5, 0.01, 10), (10**6, 0.005, 0)):
        counts = RngState(SEED).generator().multinomial(M, law.pmf, size=draws)
        alarms = sum(tv_distance(c / M, law) > threshold for c in counts)
        assert alarms == want
        assert alarms <= 0.01 * draws


def test_01_null_false_alarm_rate():
    # 01's statistic |p_hat - e^-1| under the exact law: p_hat is K / M with
    # K ~ Binomial(M = 1e5, e^-1), the vacancy of sites 1 and 2 in M
    # independent windows, so its false-alarm rate is the binomial tail
    # past the threshold 0.006, summed here from log-gamma pmf terms
    M, p, threshold = 10**5, math.exp(-1), 0.006
    assert _binomial_tail_rate(M, p, threshold) == pytest.approx(8.3e-5, rel=0.01)


def test_07b_null_false_alarm_rate():
    # 07b's statistic |p_hat - p| under the exact law: p_hat is K / M with
    # K ~ Binomial(M = 2e4, p), p the exact vacancy of [-1, 2] on the ring
    # of 40 sites from 20 (vacant_prob_ring_exact), so its false-alarm rate
    # is the binomial tail past the threshold of four standard errors,
    # summed from log-gamma pmf terms: 6.3e-5
    n, x0, a, b, M = 40, 20, 1, 2, 2 * 10**4
    p = rk.vacant_prob_ring_exact(n, rk.ring_time_scale(n, 1.0), x0, a, b)
    threshold = 4 * math.sqrt(p * (1 - p) / M)
    assert _binomial_tail_rate(M, p, threshold) == pytest.approx(6.3e-5, rel=0.01)


def test_13c_null_false_alarm_rate():
    # 13c's statistic |p_hat - p| under the exact law: p_hat is K / M with
    # K ~ Binomial(M = 1e5, p), p = hit_before_prob(5, 2, 12) = 0.28, the
    # walkers that hit 2 before 12; the threshold is four standard errors,
    # so the false-alarm rate is the binomial tail past it: 6.4e-5
    M, p = 10**5, cw.hit_before_prob(5, 2, 12)
    threshold = 4 * math.sqrt(p * (1 - p) / M)
    assert _binomial_tail_rate(M, p, threshold) == pytest.approx(6.42e-5, rel=0.01)


def _estimator_term_law(check):
    """(values, probabilities, target) of one walker's term in the estimate
    of 13d or 13e, from the laws the walk draws: 13d's walker from 5 is
    absorbed at 2 (term 1) or ends the horizon at y (term 2/y); 13e's
    walker from 3 steps down (term 0) or up to 4, from where it is absorbed
    at 3 (term 0) or ends at y (term 1 - 3/y)."""
    L = cw.ESTIMATOR_HORIZON
    if check == "13d":
        row = cw._absorb_law(np.array([5]), 2, None, L)[0]
        ends = 5 - L + 2 * np.arange(L + 1)
        values = np.concatenate([[1.0], 2 / np.maximum(ends, 1)])
        return values, row[:-1], cw.hit_prob(5, 2)
    first = cw._absorb_law(np.array([3]), 2, None, 1)[0]  # absorbed, or at 4
    row = cw._absorb_law(np.array([4]), 3, None, L)[0]
    ends = 4 - L + 2 * np.arange(L + 1)
    values = np.concatenate([[0.0, 0.0], 1 - 3 / np.maximum(ends, 1)])
    probs = np.concatenate([[first[0], first[2] * row[0]], first[2] * row[1:-1]])
    return values, probs, cw.escape_prob(3)


@pytest.mark.parametrize("check,chernoff,normal", [("13d", 3.20e-4, 2.90e-5),
                                                   ("13e", 4.04e-4, 3.71e-5)])
def test_13d_13e_null_false_alarm_rate(check, chernoff, normal):
    # 13d's and 13e's statistic |mean of M = 1e5 terms - p| under the exact
    # law of one walker's term, which takes finitely many values (the ends
    # with mass of the one law the walk draws). Its mean is p, and its
    # variance is below the binomial p(1 - p) that sets the threshold of
    # four standard errors (Rao-Blackwell: the term is the conditional
    # hitting probability given the walk at the horizon). The rate is at
    # most the Chernoff bound, summed over both tails and maximised over a
    # grid of lambda; the normal approximation with the term's own variance
    # is about a tenth of it
    M = 10**5
    values, probs, p = _estimator_term_law(check)
    keep = probs > 0
    values, probs = values[keep], probs[keep]
    assert probs.sum() == pytest.approx(1.0, abs=1e-13)
    assert probs @ values == pytest.approx(p, abs=1e-14)
    var = probs @ (values - p) ** 2
    assert var < p * (1 - p)
    threshold = 4 * math.sqrt(p * (1 - p) / M)
    bound = 0.0
    for lam in (np.linspace(1e-3, 1, 1000), -np.linspace(1e-3, 1, 1000)):
        log_mgf = np.log(np.exp(np.outer(lam, values - p)) @ probs)
        bound += math.exp(-M * np.max(np.abs(lam) * threshold - log_mgf))
    assert bound == pytest.approx(chernoff, rel=0.01)
    assert bound <= 0.01
    assert math.erfc(threshold / math.sqrt(2 * var / M)) == pytest.approx(normal, rel=0.01)


def test_03_null_false_alarm_rate():
    # 03a's and 03b's statistics under the exact law of local_time_pmf(5, 1),
    # from the pmf's own moments: the mean of M = 1e6 draws has variance
    # sigma^2 / M, and the sample variance (kappa_4 + 2 sigma^4) / M, with
    # kappa_4 = mu_4 - 3 sigma^4 the fourth cumulant (2.28 sigma^4 here).
    # The thresholds, 0.005 of the mean and 0.02 of the variance, are
    # z = 5.74 and 9.67 of those standard errors, so the false-alarm rates
    # by the normal approximation are 9.7e-9 and 4.0e-22
    M = 10**6
    law = il.local_time_pmf(5, 1.0)
    s = np.arange(len(law.pmf), dtype=np.float64)
    mean = law.pmf @ s
    var = law.pmf @ (s - mean) ** 2
    kappa4 = law.pmf @ (s - mean) ** 4 - 3 * var**2
    target_mean, target_var = il.local_time_mean(5, 1.0), il.local_time_variance(5, 1.0)
    assert mean == pytest.approx(target_mean, rel=1e-10)
    assert var == pytest.approx(target_var, rel=1e-10)
    rates = []
    for threshold, center, se in (
            (0.005 * target_mean, mean - target_mean, math.sqrt(var / M)),
            (0.02 * target_var, var - target_var, math.sqrt((kappa4 + 2 * var**2) / M))):
        rates.append(0.5 * math.erfc((threshold - center) / (se * math.sqrt(2)))
                     + 0.5 * math.erfc((threshold + center) / (se * math.sqrt(2))))
    assert rates[0] == pytest.approx(9.73e-9, rel=0.01)
    assert rates[1] == pytest.approx(3.96e-22, rel=0.01)
    assert max(rates) <= 0.01


def test_04_null_false_alarm_rate():
    # 04's statistic, the KS distance of M = 1e5 standardized draws to the
    # normal, under the exact law of local_time_pmf(400, 1): it is at most
    # the law's own distance D to the normal, sup |F - Phi| over the
    # lattice's points and left limits (0.00999, about the Edgeworth term of
    # its skewness 0.15), plus the empirical cdf's distance to F, which
    # passes 0.02 - D with probability at most 2 exp(-2 M (0.02 - D)^2)
    # (DKW with Massart's constant): 3.9e-9. The pmf's truncated tail,
    # 4e-12, moves neither
    M, x, threshold = 10**5, 400, 0.02
    law = il.local_time_pmf(x, 1.0)
    assert abs(law.tail_mass) < 1e-11
    z = il.standardize_local_time(np.arange(len(law.pmf)), x, 1.0)
    phi = 0.5 * np.fromiter(map(math.erfc, -z / math.sqrt(2)), dtype=np.float64,
                            count=len(z))
    cdf = np.cumsum(law.pmf)
    dist = max(np.max(np.abs(cdf - phi)), np.max(np.abs(cdf[:-1] - phi[1:])), phi[0])
    assert dist == pytest.approx(0.00999, rel=0.01)
    bound = 2 * math.exp(-2 * M * (threshold - dist) ** 2)
    assert bound == pytest.approx(3.93e-9, rel=0.01)
    assert bound <= 0.01
