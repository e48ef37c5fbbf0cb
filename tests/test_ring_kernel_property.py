"""Property test of the survival kernel; skipped when hypothesis is missing."""

import numpy as np
import pytest

pytest.importorskip("hypothesis", exc_type=ImportError)

from hypothesis import given, settings
from hypothesis import strategies as st

from ri1d import core_walks as cw
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


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(3, 400), share=st.floats(0.0, 1.0), data=st.data())
def test_row_walk_matches_spectral_property(n, share, data):
    # Error model: h_spectral rounds t ln cos(pi/n) to about eps relative,
    # an error of t |ln cos(pi/n)| eps in h. The killed sum walks the point
    # mass and the weight row half the blocks each and rounds every cell
    # once a block of 32 steps, each a sum of nonnegative products, so its
    # relative error drifts like sqrt(t/32) eps; the rows' dot product and
    # the spectral log-sum add a few eps. In 150 random cases up to n = 400
    # and t = 4e6 the measured error stayed below 0.3 of the bound.
    t = int(share * rk.ring_time_scale(n, 2.0))
    x = data.draw(st.integers(1, n - 1), label="x")
    bound = (2 * t * abs(rk._log_cos(np.pi / n)) + 4 * np.sqrt(t / 32) + 32) \
        * np.finfo(float).eps
    assert abs(rk.h_dp(n, x, t) / rk.h_spectral(n, x, t) - 1) <= bound


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 6), size=st.integers(1, 4096), hole=st.floats(0.0, 0.9),
       spread=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
def test_guided_search_is_searchsorted_property(rows, size, hole, spread, seed):
    # random laws over up to 4096 outcomes (K from 1 to 4096), masses spread
    # over 2**-spread, a share `hole` of zero-mass cells and some rows of no
    # mass: the guided search takes the first running sum above u, as
    # np.searchsorted does, at every running sum and bin edge, both their
    # neighbours, 0, the largest double below 1 and seeded uniforms
    gen = np.random.default_rng(seed)
    law = gen.random((rows, size)) * 2.0 ** -gen.integers(0, spread + 1, (rows, size))
    law[gen.random((rows, size)) < hole] = 0.0
    law[gen.random(rows) < 0.2] = 0.0
    law[gen.integers(rows), gen.integers(size)] += 1.0  # a law has some mass
    mass = law.sum(axis=1, keepdims=True)
    np.divide(law, mass, out=law, where=mass > 0)
    cdf, guide, k, _ = cw._search_table(law)
    assert k == 1 << (int((law > 0).any(axis=0).sum()) - 1).bit_length()
    table = cdf.reshape(rows, k)
    edges = np.arange(k) / k
    for r, row in enumerate(table):
        assert np.array_equal(guide[r * k:(r + 1) * k] - r * k,
                              np.searchsorted(row, edges, side="right"))
        u = np.concatenate([row[np.isfinite(row)], edges])
        u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 2.0),
                            [0.0, np.nextafter(1.0, 0.0)], gen.random(1000)])
        u = u[(u >= 0) & (u < 1)]
        pos = np.empty(u.size, dtype=np.intp)
        got = cw._search(cdf, guide, k, np.full(u.size, r, dtype=np.intp), u, pos,
                         np.empty(u.size), np.empty(u.size, dtype=np.intp))
        assert np.array_equal(got, np.searchsorted(row, u, side="right"))
