"""Acceptance suite: one test per criterion, printing one verdict line each.

Run with ``pytest -s`` to see the PASS/FAIL lines as they are produced; the
same checks back ``ri1d selftest``.
"""

import pytest

from ri1d import acceptance

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
    # 07a compares the exact n=40 kernel ratio against the n -> infinity
    # limit e^{-1.5}; the finite-size deviation is ~17%, far above the 3%
    # tolerance, so this check fails by design of the tolerance (see the
    # repository notes). 07b (sampler vs exact oracle) passes.
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
    # 12b compares the exact endpoint law against its smooth asymptotic at
    # y=10; the parity-restricted discrete sum deviates by ~3/y = 30%, above
    # the 2% tolerance, so this check fails by construction. 12a passes.
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
    verdicts = acceptance.run_all(SEED)
    names = {v.name for v in verdicts}
    assert len(verdicts) >= 13
    failed = {v.name for v in verdicts if not v.passed}
    # only the two documented asymptotic-tolerance checks may fail
    assert failed <= {"07a ring vacant exact vs limit",
                      "12b endpoint exact vs asymptotic"}
