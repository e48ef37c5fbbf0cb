"""Named engineering constants for asymptotic-vs-exact comparisons.

The asymptotic results only pin down error *orders*; the multiples below are
deliberately loose constants used consistently by the verification harness.
"""

from __future__ import annotations

import math

#: Coefficient of the horizon regime t >= COND_COEFF * n^2 * ln(n) under which
#: the first spectral mode of the two-point killed walk dominates.
COND_COEFF = 4.0 / math.pi**2


def cond_threshold(n: int) -> float:
    """Smallest horizon for which the first-mode regime applies to size n."""
    return COND_COEFF * n * n * math.log(n)


def in_cond_regime(t: float, n: int) -> bool:
    return t >= cond_threshold(n)


def first_mode_rel_tol(n: int) -> float:
    """Tolerance for |h/T1 - 1| in-regime (O(n^-2) scale, constant 10)."""
    return 10.0 / n**2


def no_hit_rel_tol(n_half: int) -> float:
    """Tolerance for the no-hit exact/asymptotic ratio (O(1/n) scale)."""
    return 20.0 / n_half


def mid_tail_slack(n_half: int) -> float:
    """Multiplicative slack allowed on the mid-interval tail bound."""
    return 50.0 / n_half
