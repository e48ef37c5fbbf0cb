"""Property test of the survival kernel; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis", exc_type=ImportError)

from hypothesis import given, settings
from hypothesis import strategies as st

from ri1d import ring_kernel as rk


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 200), data=st.data())
def test_kernel_matches_spectral_property(n, data):
    # Error model: the stored rows carry one rounding per step of the
    # recursion (s eps) plus the n**2 eps of the settled shape, the cut drops
    # modes below 2**-53, and h_spectral rounds s ln cos(pi/n) by about s eps.
    # Up to n = 200 the measured error stays below (n**2 + s) eps / 4.
    t = rk.ring_time_scale(n, 2.0)
    s = data.draw(st.integers(0, t), label="s")
    kernel = rk.SurvivalKernel(n, t)
    xs = np.arange(1, n)
    h = np.array([kernel.h(int(x), s) for x in xs])
    log_abs, sign = rk.h_spectral_log(n, xs, s)
    rel = np.abs(h / (sign * np.exp(log_abs)) - 1)
    assert rel.max() <= 2 * (n * n + s) * np.finfo(float).eps
