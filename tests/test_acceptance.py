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
from ri1d.mc import tv_distance
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
    k = np.arange(M + 1)
    log_pmf = (math.lgamma(M + 1) - np.array([math.lgamma(i + 1) + math.lgamma(M - i + 1)
                                              for i in range(M + 1)])
               + k * math.log(p) + (M - k) * math.log1p(-p))
    pmf = np.exp(log_pmf)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-8)
    rate = pmf[np.abs(k / M - p) > threshold].sum()
    assert rate == pytest.approx(8.3e-5, rel=0.01)


def test_07b_null_false_alarm_rate():
    # 07b's statistic |p_hat - p| under the exact law: p_hat is K / M with
    # K ~ Binomial(M = 2e4, p), p the exact vacancy of [-1, 2] on the ring
    # of 40 sites from 20 (vacant_prob_ring_exact), so its false-alarm rate
    # is the binomial tail past the threshold of four standard errors,
    # summed from log-gamma pmf terms: 6.3e-5
    n, x0, a, b, M = 40, 20, 1, 2, 2 * 10**4
    p = rk.vacant_prob_ring_exact(n, rk.ring_time_scale(n, 1.0), x0, a, b)
    threshold = 4 * math.sqrt(p * (1 - p) / M)
    k = np.arange(M + 1)
    log_pmf = (math.lgamma(M + 1) - np.array([math.lgamma(i + 1) + math.lgamma(M - i + 1)
                                              for i in range(M + 1)])
               + k * math.log(p) + (M - k) * math.log1p(-p))
    pmf = np.exp(log_pmf)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-8)
    rate = pmf[np.abs(k / M - p) > threshold].sum()
    assert rate == pytest.approx(6.3e-5, rel=0.01)
