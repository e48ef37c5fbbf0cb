import hashlib
import math
import threading
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.special import logsumexp

from ri1d import config
from ri1d import core_walks as cw
from ri1d import interlacements as il
from ri1d import ring_kernel as rk
from ri1d.mc import tv_distance
from ri1d.rngs import RngState


def _start_part(length: int, start: int, kill) -> tuple[int, int]:
    """The ends (lo, hi) of the part of 0..length that the killed sites
    nearest start cut off around it."""
    lo = max((k for k in kill if k < start), default=0)
    hi = min((k for k in kill if k > start), default=length)
    return lo, hi


def _concatenated(runs):
    """(rows, log_z) of runs of the killed walk, each after the first
    without its start row, the last row of the run before."""
    return tuple(np.concatenate([runs[0][i][:1]] + [run[i][1:] for run in runs])
                 for i in (0, 1))


def _walk_rows(v, steps: int):
    """Every row 0..steps of rk._killed_walk from v and their log scales."""
    return _concatenated([(rows.copy(), log_z.copy())
                          for rows, log_z in rk._killed_walk(v, steps)])


def _kernel_rows(kernel):
    """Every kernel row 0..R: the stored row 0, then each run of the
    kernel's walk replayed alone from its stored start row
    (SurvivalKernel._replay), without that row."""
    runs = -(-(len(kernel._log_z) - 1) // rk._RESCALE_EVERY)
    return np.concatenate([kernel._starts[:1]]
                          + [kernel._replay(j)[1:].copy() for j in range(runs)])


def _walk_part(v, steps: int, kill, start):
    """rk._killed_walk on the part of v that holds start, its rows put back
    onto all of v's sites: the walk killed at 0, len(v) - 1 and kill."""
    lo, hi = _start_part(len(v) - 1, start, kill)
    rows, log_z = _walk_rows(v[lo:hi + 1], steps)
    full = np.zeros((len(rows), len(v)))
    full[:, lo:hi + 1] = rows
    return full, log_z


def _propagate_killed(length: int, start: int, steps: int,
                      extra_kill: tuple[int, ...] = ()):
    """Distribution of the simple walk killed at {0, length} + extra sites.

    Returns (weights summing to 1 over 0..length, log of the surviving mass)
    after ``steps`` steps from ``start``, or (zeros, -inf) once nothing
    survives: the last row of the one-step loop (:func:`_killed_steps_last`).
    """
    if start in (0, length) or start in extra_kill:
        raise ValueError(f"start {start} is a killed site")
    v = np.zeros(length + 1)
    v[start] = 1.0
    w, log_z = _killed_steps_last(v, steps, extra_kill)
    total = w.sum()
    if total == 0.0:
        return w, -math.inf
    return w / total, log_z + math.log(total)


class TestKernelBackends:
    def test_base_cases(self):
        assert rk.h_dp(4, 2, 1) == 1.0
        assert rk.h_dp(4, 1, 1) == 0.5
        assert rk.h_spectral(4, 1, 0) == pytest.approx(1.0, abs=1e-12)
        assert rk.h_spectral(4, 1, 1) == pytest.approx(0.5, rel=1e-12)

    def test_boundaries_and_t0(self):
        for n in (3, 6, 9):
            assert rk.h_dp(n, 0, 5) == 0.0
            assert rk.h_dp(n, n, 5) == 0.0
            for x in range(1, n):
                assert rk.h_dp(n, x, 0) == 1.0

    def test_equivalence_grid(self):
        for n in range(3, 25):
            kernel = rk.SurvivalKernel(n, 200)
            x = np.arange(1, n)
            for t in range(0, 201):
                dp = np.array([kernel.h(int(y), t) for y in x])
                log_abs, sign = rk.h_spectral_log(n, x, t)
                sp = sign * np.exp(log_abs)
                assert np.all(np.abs(sp - dp) <= 1e-9 * np.maximum(dp, 1e-300))

    def test_medium_horizon(self):
        assert rk.h_spectral(10, 5, 200) == pytest.approx(rk.h_dp(10, 5, 200),
                                                          rel=1e-10)

    def test_symmetry(self):
        for n, x, t in product((5, 8, 13), (1, 2, 3), (0, 3, 17)):
            assert rk.h_spectral(n, x, t) == pytest.approx(
                rk.h_spectral(n, n - x, t), rel=1e-9, abs=1e-300)

    def test_one_step_identity_spectral(self):
        for n in (6, 9):
            for t in range(1, 40):
                for x in range(1, n):
                    lhs = rk.h_spectral(n, x, t)
                    rhs = 0.5 * rk.h_spectral(n, x - 1, t - 1) \
                        + 0.5 * rk.h_spectral(n, x + 1, t - 1)
                    assert abs(lhs - rhs) <= 1e-10

    def test_monotone_in_t(self):
        for x in range(1, 7):
            vals = [rk.h_dp(7, x, t) for t in range(0, 60)]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_deep_underflow_log_domain(self):
        # magnitudes near 1e-300 keep full relative accuracy
        log_sp, sign = rk.h_spectral_log(6, 3, 10**4)
        _, log_dp = _propagate_killed(6, 3, 10**4)
        assert sign == 1.0
        assert float(log_sp) == pytest.approx(log_dp, rel=1e-12)
        assert log_dp < -1000

    def test_absorption_pmf_split(self):
        # P[tau = k] = h(x,k-1) - h(x,k) agrees between backends
        for n in (6, 9, 12):
            kernel = rk.SurvivalKernel(n, 100)
            for x in range(1, n):
                for k in range(1, 101):
                    dp = kernel.h(x, k - 1) - kernel.h(x, k)
                    sp = rk.h_spectral(n, x, k - 1) - rk.h_spectral(n, x, k)
                    assert abs(dp - sp) <= 1e-10

    def test_spectral_against_mpmath(self):
        # ln|cos| from log1p(-2 sin^2(phi/2)): within a few eps at horizons
        # where np.log(np.abs(np.cos(theta))) was 7.9e-12 and 1.2e-11 off
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for n, x, t in ((160, 80, 207505), (1000, 500, 250000)):
                theta = [mpmath.pi * (2 * j - 1) / n for j in range(1, n // 2 + 1)]
                ref = sum(2 * mpmath.cos(th)**t * mpmath.cot(th / 2)
                          * mpmath.sin(x * th) for th in theta) / n
                assert abs(float(rk.h_spectral(n, x, t) / ref) - 1) <= 1e-14
                first = 4 / mpmath.pi * mpmath.cos(mpmath.pi / n)**t \
                    * mpmath.sin(mpmath.pi * x / n)
                assert abs(float(rk.h_asymptotic(n, x, t)[0] / first) - 1) <= 1e-14

    def test_cos_zero_mode_and_n2(self):
        # n = 6 has theta = pi/2, where log1p(-2 sin^2(pi/4)) would be NaN
        log_abs, _ = rk._spectral_log_terms(6, 1, np.array([0, 1, 5]))
        assert not np.isnan(log_abs).any()
        # mode 2 is theta = pi/2: cos^0 = 1, and every higher power is 0
        assert np.isfinite(log_abs[0, 1]) and np.all(log_abs[1:, 1] == -np.inf)
        assert rk.h_asymptotic(2, 1, 0)[0] == 4 / math.pi
        assert rk.h_asymptotic(2, 1, 3)[0] == 0.0

    def test_spectral_negative_sum_raises(self, monkeypatch):
        # inside the segment a negative signed sum is cancellation, not 0
        monkeypatch.setattr(rk, "h_spectral_log", lambda n, x, t: (0.0, -1.0))
        with pytest.raises(RuntimeError, match="n=10, x=5, t=20"):
            rk.h_spectral(10, 5, 20)

    def test_spectral_killed_sites_exact_zero(self, monkeypatch):
        # at the killed sites the raw sum is rounding noise of either sign
        monkeypatch.setattr(rk, "h_spectral_log", lambda n, x, t: (0.0, -1.0))
        assert rk.h_spectral(10, 0, 20) == 0.0
        assert rk.h_spectral(10, 10, 20) == 0.0


class TestSpectralArrayT:
    """h_spectral_log with an array t is the stacked scalar calls, bit for bit."""

    # odd n, n = 0 (mod 4), and n = 2 (mod 4), where the cos = 0 mode meets t = 0
    @pytest.mark.parametrize("n", [3, 7, 12, 24, 6, 10, 22])
    def test_stacked_scalar_calls(self, n):
        xs = np.arange(0, n + 1)
        ts = np.array([0, 1, 2, 3, 17, 200, 10**4])
        log_abs, sign = rk.h_spectral_log(n, xs, ts)
        assert log_abs.shape == sign.shape == (ts.size, n + 1)
        for i, t in enumerate(ts):
            log_t, sign_t = rk.h_spectral_log(n, xs, int(t))
            assert np.array_equal(log_abs[i], log_t)
            assert np.array_equal(sign[i], sign_t)

    def test_t_axes_before_x_axes(self):
        ts = np.array([[0, 5], [40, 41]])
        log_abs, sign = rk.h_spectral_log(10, np.array([3, 5, 7]), ts)
        assert log_abs.shape == sign.shape == (2, 2, 3)
        log_s, sign_s = rk.h_spectral_log(10, 5, 41)
        assert log_abs[1, 1, 1] == log_s and sign[1, 1, 1] == sign_s

    def test_one_negative_entry_raises(self):
        with pytest.raises(ValueError, match="need t >= 0, got -3"):
            rk.h_spectral_log(10, 5, np.array([0, 4, -3, 9]))


class TestAsymptotic:
    def test_x_half_value(self):
        n, t = 16, 3000
        val, ok = rk.h_asymptotic(n, n // 2, t)
        assert val == pytest.approx((4 / math.pi) * math.cos(math.pi / n)**t,
                                    rel=1e-12)
        assert ok

    def test_regime_flag(self):
        assert not rk.h_asymptotic(64, 32, 100)[1]
        t = math.ceil(config.cond_threshold(64))
        assert rk.h_asymptotic(64, 32, t)[1]

    def test_first_mode_deviation(self):
        devs = []
        for n in (32, 64, 128):
            t = math.ceil(config.cond_threshold(n))
            dev = rk.h_over_t1_deviation(n, n // 2, t)
            assert dev <= config.first_mode_rel_tol(n)
            devs.append(dev)
        assert devs[0] > devs[1] > devs[2]


class TestRingWalk:
    def test_ring_time_scale(self):
        assert rk.ring_time_scale(40, 1.0) == 3242
        assert rk.ring_time_scale(48, 2.0) == \
            int(2 * 48**3 / (2 * math.pi**2))
        with pytest.warns(UserWarning):
            rk.ring_time_scale(2, 1e-6)

    def test_step_up_prob_values(self):
        p_up = rk.SurvivalKernel(4, 2)._step_up_table()
        assert p_up[2, 2] == pytest.approx(0.5, rel=1e-12)
        assert p_up[1, 1] == pytest.approx(1.0, rel=1e-12)

    def test_step_symmetry_and_normalization(self):
        kernel = rk.SurvivalKernel(9, 50)
        p_up = kernel._step_up_table()
        table, log_z = _kernel_rows(kernel), kernel._log_z
        for s in range(1, 51):
            for x in range(1, 9):
                up = p_up[s, x]
                down = p_up[s, 9 - x]
                assert up == pytest.approx(1 - down, abs=1e-10)
                # down-step probability via the one-step identity
                ratio = math.exp(log_z[s - 1] - log_z[s])
                dn = table[s - 1, x - 1] * ratio / (2 * table[s, x])
                assert up + dn == pytest.approx(1.0, abs=1e-10)

    def test_sample_path_determinism_and_support(self):
        a = rk.sample_ring_path(6, 30, 3, RngState(5, 1))
        b = rk.sample_ring_path(6, 30, 3, RngState(5, 1))
        assert a == b
        assert a.n_steps == 30
        assert all(0 < p < 6 for p in a.positions)

    def test_sample_path_matches_scalar_walk(self):
        # reference: one uniform per step against h(x+1, s-1) / (2 h(x, s));
        # check 08's ring crosses R (s* = 2129) and ends on a 2-step block
        for n, t, x0 in ((6, 30, 3), (20, 500, 7), (48, 5602, 24)):
            kernel = rk.SurvivalKernel(n, t)
            for seed in range(3):
                gen = RngState(seed, 1).generator()
                pos = [x0]
                for s in range(t, 0, -1):
                    x = pos[-1]
                    up = kernel.h(x + 1, s - 1) / (2 * kernel.h(x, s))
                    pos.append(x + 1 if gen.random() < up else x - 1)
                path = rk.sample_ring_path(n, t, x0, RngState(seed, 1))
                assert list(path.positions) == pos

    @pytest.mark.parametrize("walk", ["_ring_paths_batch"])
    def test_horizon_past_the_table_raises(self, walk):
        kernel = rk.SurvivalKernel(6, 10)
        with pytest.raises(ValueError, match="exceeds table horizon"):
            getattr(rk, walk)(kernel, 3, 11, 1, RngState(0).generator())

    def test_batch_rejects_start_off_the_segment(self):
        kernel = rk.SurvivalKernel(6, 10)
        for x0 in (0, 6, -1, 9):
            with pytest.raises(ValueError, match="need 0 < x0 < n"):
                rk._ring_paths_batch(kernel, x0, 10, 4, RngState(0).generator(),
                                     visit_site=3)

    def test_batch_rejects_impossible_conditioning(self):
        # at n = 2 the walk from 1 dies at step 1: h_2(1, t) = 0 for t >= 1
        kernel = rk.SurvivalKernel(2, 5)
        for t in (1, 5):
            with pytest.raises(ValueError, match="impossible"):
                rk._ring_paths_batch(kernel, 1, t, 4, RngState(0).generator(),
                                     stay_in=(0, 2))
        visits, inside = rk._ring_paths_batch(kernel, 1, 0, 4, RngState(0).generator(),
                                              visit_site=1, stay_in=(0, 2))
        assert visits.tolist() == [0] * 4 and inside.all()

    def test_impossible_conditioning(self):
        with pytest.raises(ValueError):
            rk.sample_ring_path(2, 1, 1, RngState(0))

    def test_sample_path_domain(self):
        for x0 in (0, 6, -1):
            with pytest.raises(ValueError, match="need 0 < x0 < n"):
                rk.sample_ring_path(6, 30, x0, RngState(0))
        with pytest.raises(ValueError, match="need t_total >= 0"):
            rk.sample_ring_path(6, -1, 3, RngState(0))

    def _exhaustive_paths(self, n, x0, t):
        paths = []
        for steps in product((-1, 1), repeat=t):
            pos = [x0]
            for s in steps:
                pos.append(pos[-1] + s)
            if all(0 < p < n for p in pos):
                paths.append(pos)
        return paths

    def test_path_law_enumeration(self):
        # every surviving path has probability 1/(2^t h_n(x0, t)); they sum to 1
        for n, x0, t in ((4, 2, 2), (4, 1, 5), (5, 2, 8), (5, 3, 7)):
            kernel = rk.SurvivalKernel(n, t)
            p_up = kernel._step_up_table()
            h0 = kernel.h(x0, t)
            total = 0.0
            for pos in self._exhaustive_paths(n, x0, t):
                prob = 1.0
                for i, (a, b) in enumerate(zip(pos, pos[1:])):
                    up = p_up[t - i, a]
                    prob *= up if b > a else 1 - up
                assert prob == pytest.approx(1 / (2**t * h0), rel=1e-11)
                total += prob
            assert total == pytest.approx(1.0, abs=1e-12)


def _position_steps(kernel, x0, t, M, gen):
    """Positions of M conditioned walkers after each step, read from the full
    (t + 1)(n + 1) step table: the oracle of the path sampler."""
    p_up = kernel._step_up_table()[:t + 1]
    pos = np.full(M, x0, dtype=np.int64)
    u = np.empty(M)
    thr = np.empty(M)
    up = np.empty(M, dtype=bool)
    for s in range(t, 0, -1):
        gen.random(out=u)
        np.take(p_up[s], pos, out=thr)
        np.less(u, thr, out=up)
        pos += up
        pos += up
        pos -= 1
        yield pos


class TestUpCountWalk:
    """The path sampler and the up-step rows the walks read, against the
    step table, bit for bit."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, 41, 48])
    def test_matches_position_walk(self, n):
        s_star = rk._settled_steps(n)
        x0 = n // 2
        # t = s* keeps every row, t > s* + 1 reads the settled row
        for t in (max(s_star, 1), 3 * s_star + 40):
            kernel = rk.SurvivalKernel(n, t)
            for seed in range(5):
                ref = _position_steps(kernel, x0, t, 1, RngState(seed, 2).generator())
                path = rk.sample_ring_path(n, t, x0, RngState(seed, 2))
                assert list(path.positions) == [x0] + [int(pos[0]) for pos in ref]

    def test_start_outside_interval_is_outside(self):
        # the whole path, its start included, must stay strictly inside; in
        # 3 steps from 6 a walker can leave a bound it starts on for good,
        # and cannot reach a bound 3 sites above it
        kernel = rk.SurvivalKernel(12, 3)
        for bounds in ((6, 11), (1, 6), (9, 11)):
            _, inside = rk._ring_paths_batch(kernel, 6, 3, 30, RngState(1).generator(),
                                             stay_in=bounds)
            assert not inside.any()

    @pytest.mark.parametrize("n, t", [(3, 9), (4, 9), (5, 120), (6, 30), (7, 180),
                                      (12, 400), (41, 5000), (48, 5602)])
    def test_layout_holds_the_step_table(self, monkeypatch, n, t):
        # the up-step rows the path sampler reads from s0 steps to go, past,
        # at, across and before the last stored row R, are the step table's
        # rows s0, s0 - 1, ..., 1 bit for bit, in blocks of at most 32 rows;
        # at or below R a block is one run of the kernel's walk, each
        # replayed once
        kernel = rk.SurvivalKernel(n, t)
        p_up = kernel._step_up_table()
        R = len(kernel._log_z) - 1
        assert R == min(t, rk._settled_steps(n) + 1) < t
        replay, replays = rk.SurvivalKernel._replay, []

        def counted(self, j):
            replays.append(j)
            return replay(self, j)

        monkeypatch.setattr(rk.SurvivalKernel, "_replay", counted)
        for s0 in sorted({min(s, t) for s in (1, 5, 33, R - 1, R, R + 1, R + 40, t)} - {0}):
            replays.clear()
            blocks = list(kernel._up_rows(s0))
            assert np.array_equal(np.concatenate(blocks), p_up[s0:0:-1])
            assert all(0 < len(b) <= rk._BLOCK for b in blocks)
            below = min(s0, R)
            assert sorted(replays) == list(range(-(-below // rk._RESCALE_EVERY)))
            assert [len(b) for b in blocks[len(blocks) - len(replays):]] == \
                [below - (below - 1) // rk._RESCALE_EVERY * rk._RESCALE_EVERY] \
                + [rk._RESCALE_EVERY] * (len(replays) - 1)
        # the edges are exact: a walker at 1 always steps up, at n - 1 down
        assert np.all(p_up[1:, 1] == 1.0) and np.all(p_up[1:, n - 1] == 0.0)

    def test_inexact_edge_raises(self, monkeypatch):
        # the ratio exp(log_z[s-1] - log_z[s]) leaves the up-step at site 1
        # at 0.9999999999999973 in most rows of n = 48; the path sampler,
        # the one reader of the up-step rows, refuses them
        def exp_ratio(log_z):
            return 0.5 * np.exp(log_z[:-1] - log_z[1:])

        monkeypatch.setattr(rk, "_up_ratio", exp_ratio)
        with pytest.raises(RuntimeError, match="n=48 at the edge sites 1 and 47"):
            rk.sample_ring_path(48, 5602, 24, RngState(0))


def _enumerated_block_law(kernel, s0, steps, parity, visit_site, stay_in, shape):
    """law[r, d, c, f] summed over all 2**steps step sequences from each start,
    each weighted by the step table's up-steps (down = 1 - up); the sums run
    in extended precision, so each cell is off by the rounding of its
    products, at most steps eps relative."""
    n, p_up = kernel.n, kernel._step_up_table()
    ups = (np.arange(2**steps)[:, None] >> np.arange(steps)) & 1
    law = np.zeros(shape, dtype=np.longdouble)
    for r in range(n // 2 + 1):
        x = 2 * r + parity
        if not 0 < x < n:
            continue
        y = x + np.cumsum(2 * ups - 1, axis=1)  # sites after steps 1..steps
        before = np.hstack([np.full((len(ups), 1), x), y[:, :-1]])
        weight = np.ones(len(ups))
        for i in range(steps):
            # a sequence that leaves 1..n-1 has a step of weight exactly 0
            up = p_up[s0 - i].take(before[:, i], mode="clip")
            weight *= np.where(ups[:, i] == 1, up, 1.0 - up)
        c = (y == visit_site).sum(axis=1) if visit_site is not None else 0
        f = np.isin(y, stay_in).any(axis=1) if stay_in is not None else 0
        np.add.at(law, (r, ups.sum(axis=1), c, f * 1), weight.astype(np.longdouble))
    return law


def _visit_law_exact(n, x0, t, site, cap=None, bounds=None):
    """law[k, f] of the visits k to site at times 1..t and of f = 1 if the
    walk sat on a bound of the open interval bounds at one of them or
    started outside it, under the t-horizon ring law: the killed walk from
    x0 with both marks carried along, w[f, k, y] the mass at y, normalized
    by the surviving mass. With a cap, k >= cap is lumped in row cap."""
    K = t if cap is None else cap
    w = np.zeros((2, K + 1, n + 1))
    w[int(bounds is not None and not bounds[0] < x0 < bounds[1]), 0, x0] = 1.0
    for _ in range(t):
        nxt = np.zeros_like(w)
        nxt[..., 1:n] = 0.5 * (w[..., :n - 1] + w[..., 2:])  # 0 and n stay empty
        at = nxt[:, :, site].copy()
        nxt[:, 1:, site] = at[:, :-1]
        nxt[:, 0, site] = 0.0
        nxt[:, K, site] += at[:, K]
        for y in bounds or ():
            if 0 < y < n:
                nxt[1, :, y] += nxt[0, :, y]
                nxt[0, :, y] = 0.0
        w = nxt
    law = w.sum(axis=2).T
    return law / law.sum()


def _killed_law_direct(n, steps, parity, site, bounds, slots):
    """law[r, e, c, f] of the walk killed at 0 and n over an even number of
    steps, from every start row r (site 2r + parity) to the end row e (site
    2e + parity), with c visits to site and f = 1 if it sat on a bound of
    bounds, both at the arrival times 1..steps: the killed walk stepped one
    step at a time in floats with both marks, as _visit_law_exact steps it,
    w[r, f, c, y] the mass at y. c < slots holds every visit count."""
    rows = n // 2 + 1
    x = 2 * np.arange(rows) + parity
    on = np.flatnonzero((0 < x) & (x < n))
    w = np.zeros((rows, 2 if bounds else 1, slots, 2 * rows + 2))
    w[on, 0, 0, x[on]] = 1.0
    for _ in range(steps):
        nxt = np.zeros_like(w)
        nxt[..., 1:n] = 0.5 * (w[..., :n - 1] + w[..., 2:n + 1])  # 0 and n stay empty
        if site is not None:
            nxt[..., 1:, site] = nxt[..., :-1, site].copy()
            nxt[..., 0, site] = 0.0
        for y in bounds or ():
            if 0 < y < n:
                nxt[:, 1, :, y] += nxt[:, 0, :, y]
                nxt[:, 0, :, y] = 0.0
        w = nxt
    return w[..., parity::2][..., :rows].transpose(0, 3, 2, 1)


def _composed_law(kernel, x0, t, visit_site=None, stay_in=None, cap=0):
    """Exact law of the batch walk's output, composed from the walk's own
    laws in the walk's own order (rk._block_laws), with no sampling.

    The state is w[r, k, f], the mass at row r (site 2r + x0 % 2 between
    laws) with k visits to visit_site (k >= cap lumped in row cap) and f =
    1 once the walk sat on a bound of stay_in or started outside it. A law
    law[r, e, c, f] takes row r to its end row e, as the walk moves its
    walkers, adds its c visits and ors in its f. Returns (law[k, f] summed
    over the rows, a bound on the roundings in one of its cells).

    Every term is positive, so nothing cancels and a cell's relative error
    is at most eps times the roundings on its longest chain: the depth of
    its sums plus its products. The law of a super-block of B = 2**j blocks
    is K h[e] / (S @ h)[r] (rk._h_transform), K the killed law and S its
    sums over the marks:
    - K of one block, or of the short block, is exact; a doubling adds its
      factors' chains and one product, a matrix product over the middle row
      (depth rows - 1) and its adds over the first factor's c slots and
      flags (F (C' + 1)), C' the factor's slots; over j doublings, with
      C' = 2**i (c1 - 1) + 1 at doubling i, that is (B - 1)(rows + 2F) +
      F j (C - 1) / 2, C and F the law's c and f slots;
    - the law's cell reads K twice, in its product and in its row sum, and
      adds the product by h, the sum over the marks (C F - 1), the product
      and sum over the end row (rows) and the division: 2 K + C F + rows + 1;
    - the kernel rows at the law's two ends are one rounding a step apart,
      the killed walk's add: steps more. Past the stored rows, where h is
      the stored row of its parity times a power of cos(pi/n), that row is
      the slow modes to 2**-53.
    Composing the laws telescopes h, but the walk's first law divides by
    the harmonic extension of its end row, whose own error is at most one
    rounding a kernel row it was built from: min(t, R) + 1 once. Drawing a
    law adds, for the composition here, a matrix product over the start row
    (rows), the adds over the law's slots and flags (C F) and the lumped
    visits (C): rows + C (F + 1) + 1.
    """
    rows = kernel.n // 2 + 1
    w = np.zeros((rows, cap + 1, 2))
    w[x0 // 2, 0, int(stay_in is not None and not stay_in[0] < x0 < stay_in[1])] = 1.0
    roundings = min(t, len(kernel._log_z) - 1) + 1
    for steps, law, draws in rk._block_laws(kernel, x0, t, visit_site, stay_in):
        assert law.shape[:2] == (rows, rows)
        slots, flags = law.shape[2:]
        a = law.transpose(2, 3, 1, 0).reshape(-1, rows)  # a[(c, f, end), start]
        for _ in range(draws):
            moved = (a @ w.reshape(rows, -1)).reshape(slots, flags, rows, cap + 1, 2)
            w = np.zeros_like(w)
            for c, f in product(range(slots), range(flags)):
                m = moved[c, f].sum(axis=2, keepdims=True) if f else moved[c, f]
                k = min(c, cap)
                w[:, k:, f:] += m[:, :cap + 1 - k]
                w[:, cap, f:] += m[:, cap + 1 - k:].sum(axis=1)
        blocks = steps // rk._BLOCK
        killed = 0 if blocks <= 1 else ((blocks - 1) * (rows + 2 * flags)
                                        + flags * (blocks.bit_length() - 1) * (slots - 1) // 2)
        roundings += draws * (2 * killed + slots * flags + 2 * rows + steps
                              + slots * (flags + 1) + 2)
    return w.sum(axis=0), roundings


def _path_counts(n, steps, visit_site, stay_in):
    """N[x, y, c, f]: the number of paths of ``steps`` steps from x to y that
    stay in 1..n-1, with c visits to visit_site at the times 1..steps and
    f = 1 if they sat on a bound of stay_in at one of them, in exact
    integers. Up to 16 steps by brute force over all 2**steps step sequences
    from each x; longer paths join two halves at their middle site, the
    visit counts adding and the flags or-ing."""
    if steps > 16:
        # counts below 2**32: the float products and sums are exact
        a = _path_counts(n, steps // 2, visit_site, stay_in).astype(float)
        b = a if steps % 2 == 0 else \
            _path_counts(n, steps - steps // 2, visit_site, stay_in).astype(float)
        out = np.zeros((n + 1, n + 1, steps + 1, 2))
        for c1, f1 in zip(*np.nonzero(a.any(axis=(0, 1)))):
            for c2, f2 in zip(*np.nonzero(b.any(axis=(0, 1)))):
                out[:, :, c1 + c2, f1 | f2] += a[:, :, c1, f1] @ b[:, :, c2, f2]
        assert out.max() < 2**32
        return out.astype(np.int64)
    ups = (np.arange(2**steps)[:, None] >> np.arange(steps)) & 1
    moves = np.cumsum(2 * ups - 1, axis=1)  # offsets from the start after 1..steps
    # times[i, steps + v]: how often sequence i sits at offset v
    seq = np.arange(len(moves))[:, None] * (2 * steps + 1)
    times = np.bincount((seq + moves + steps).ravel(), minlength=len(moves) * (2 * steps + 1))
    times = times.reshape(len(moves), 2 * steps + 1)
    low, high, end = moves.min(axis=1), moves.max(axis=1), moves[:, -1]
    out = np.zeros((n + 1, n + 1, steps + 1, 2), dtype=np.int64)
    for x in range(1, n):

        def at(site):
            """The times each sequence from x sits on site."""
            v = steps + site - x
            return times[:, v] if 0 <= v <= 2 * steps else np.zeros(len(moves), dtype=np.intp)

        live = (x + low > 0) & (x + high < n)
        c = at(visit_site) if visit_site is not None else 0 * end
        f = sum(at(y) for y in stay_in) > 0 if stay_in is not None else 0 * end
        cells = np.ravel_multi_index((x + end[live], c[live], f[live] * 1), out.shape[1:])
        out[x] = np.bincount(cells, minlength=out[x].size).reshape(out.shape[1:])
    return out


def _by_end_row_scatter(law):
    """Reference for rk._by_end_row: a fancy-index scatter of each cell of
    law[r, d, c, f] to row r + d - (law.shape[1] - 1) // 2, asserting that
    no mass falls outside the rows."""
    rows, width = law.shape[:2]
    r, d = np.indices((rows, width))
    end = r + d - (width - 1) // 2
    held = (0 <= end) & (end < rows)
    assert not law[~held].any()
    out = np.zeros((rows, rows) + law.shape[2:])
    out[r[held], end[held]] = law[held]
    return out


def _killed_power(n, blocks, parity, site, bounds):
    """The killed law of ``blocks`` (a power of two) blocks as rk._block_laws
    builds it: the block's, composed with itself by doubling, each power
    rescaled by a power of two."""
    law = rk._killed_block(n, rk._BLOCK, parity, site, bounds)
    while blocks > 1:
        law = rk._compose(law, law)
        rk._rescale(law)
        blocks //= 2
    return law


def _cap_cells(law, blocks):
    """The cells rk._block_laws counts for a power of ``blocks`` blocks of
    the one-block killed law: rows x the moves the power can reach x its
    slots."""
    rows, _, slots, flags = law.shape
    return rows * min(2 * rows - 1, rk._BLOCK * blocks + 1) * (blocks * (slots - 1) + 1) * flags


def _assert_schedule(kernel, x0, t, site, bounds, yields):
    """rk._block_laws' yields for a t-step walk are its super-block schedule:
    the top power of 2**J blocks, the last the cap allows, (t // 32) >> J
    times, the ones that end at or past row R - 1 as one law drawn that
    many times; then one super-block per set bit of the full blocks below
    J, largest first; then the short block; all once, covering t steps."""
    blocks, short = divmod(t, rk._BLOCK)
    R = len(kernel._log_z) - 1
    schedule = [(steps, draws) for steps, _, draws in yields]
    assert sum(steps * draws for steps, draws in schedule) == t
    assert all(law.shape[:2] == (kernel.n // 2 + 1,) * 2 for _, law, _ in yields)
    expect = []
    if blocks:
        top = schedule[0][0] // rk._BLOCK
        assert top & (top - 1) == 0 and top <= blocks
        one = rk._killed_block(kernel.n, rk._BLOCK, x0 % 2, site, bounds)
        assert top == 1 or 2 * _cap_cells(one, top) <= rk._BATCH_CELLS
        assert 2 * top > blocks or 2 * _cap_cells(one, 2 * top) > rk._BATCH_CELLS
        L = rk._BLOCK * top
        ends = [t - (i + 1) * L for i in range(blocks // top)]
        shared = sum(end >= R - 1 for end in ends)
        assert all(end >= R - 1 for end in ends[:shared])
        expect = [(L, shared)] * (shared > 0) + [(L, 1)] * (len(ends) - shared)
        expect += [(rk._BLOCK << j, 1) for j in reversed(range(top.bit_length() - 1))
                   if blocks >> j & 1]
    expect += [(short, 1)] * (short > 0)
    assert schedule == expect
    return schedule


#: (n, x0, visit site, bounds, M): the ring walks of the benchmark's
#: ring_walk sweep, check 07b, check 08 at one chunk, and sampling-scale's
#: n = 80 vacant walk
SWEEP_WALKS = ((40, 20, None, (2, 39), 20000), (48, 24, 2, None, 65536),
               (80, 40, None, (2, 79), 4000))

#: sha256 of the visits, inside flags and generator state of one walk of
#: each of SWEEP_WALKS at alpha = 1 from RngState(0), as the walk drawing
#: h-transformed killed laws in super-blocks draws them
WALK_OUTPUTS_SHA256 = {
    40: "0e09d3a7c8009e151b0d4bfbdc85fd8e51eafbbea6acec1ad0b44bdd40b0760a",
    48: "ab4a4d5ac82a700a8898ec47fec3302aa9522bd28d60058b0df81d42fb1ac2dd",
    80: "bc81c1eee3da3eea1a8a97cad02a2fa939a8e2528642c1d2d20aff0312c6cd91",
}


class TestBlockLaw:
    """The laws behind the batch walk, their schedule, and the walk's visit
    law."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12])
    def test_matches_enumeration(self, n):
        # stretches before, across and past the last stored row R; visit
        # sites on both edges and in the middle, bounds on the edges,
        # outside 0..n and inside. The law (rk._h_transform of the exact
        # killed law) against the step table's up-steps summed over every
        # step sequence, by end row. Error model, per cell relative: the
        # law's product, row sum and division (C F + rows + 1; the killed
        # law of at most 32 steps is exact), the kernel rows at the two ends
        # one rounding a step apart (steps); the reference's up-steps one
        # division each, their complements one subtraction that at most
        # doubles on the sites where 1 - up >= 1/4, and their products
        # (4 steps). No cell may also be further than today's K eps
        t = 3 * rk._settled_steps(n) + 40
        kernel = rk.SurvivalKernel(n, t)
        R = len(kernel._log_z) - 1
        cases = [(1, (0, n)), (n - 1, (-2, n + 3)), (n // 2, (1, n - 1)),
                 (None, (2, n - 2)), (n // 2 + 1, None), (None, None)]
        eps = np.finfo(float).eps
        for steps in (1, 5, 12):
            s0s = sorted({steps, max(steps, R - steps // 2), R + 3 + steps})
            for parity in (0, 1):
                for site, bounds in cases:
                    killed = rk._killed_block(n, steps, parity, site, bounds)
                    for s0 in s0s:
                        law = rk._h_transform(kernel, killed, s0 - steps, parity - steps % 2)
                        rows, _, slots, flags = law.shape
                        ref = _by_end_row_scatter(_enumerated_block_law(
                            kernel, s0, steps, parity, site, bounds,
                            (rows, steps + 1, slots, flags)))
                        gap = np.abs(law - ref.astype(float))
                        model = (5 * steps + slots * flags + rows + 1) * eps * ref
                        assert np.all(gap <= model)
                        assert gap.max() <= rk._search_table(law)[2] * eps

    def test_shape_and_rows(self):
        # arrivals 1..5 from even starts: site 3 can be met at times 1, 3, 5;
        # 5 steps from the site 2r end at 2e - 1, e = 0..6
        kernel = rk.SurvivalKernel(12, 400)
        law = rk._h_transform(kernel, rk._killed_block(12, 5, 0, 3, (2, 9)), 395, -1)
        assert law.shape == (7, 7, 4, 2)
        sums = law.sum(axis=(1, 2, 3))
        assert sums[0] == sums[6] == 0.0  # starts 0 and 12 are off the segment
        assert np.max(np.abs(sums[1:6] - 1)) <= 8 * np.finfo(float).eps
        assert not law[:, 0].any()  # no walker ends at -1

    def test_search_table(self):
        kernel = rk.SurvivalKernel(12, 400)
        law = rk._h_transform(kernel, rk._killed_block(12, 12, 1, 5, (2, 9)), 388, 1)
        cdf, _, k, d, c, f = rk._search_table(law)
        rows = law.shape[0]
        kept = (law > 0).any(axis=0)
        assert k == 1 << (int(kept.sum()) - 1).bit_length() and cdf.shape == (rows * k,)
        cdf = cdf.reshape(rows, k)
        for r in range(rows):
            pmf = law[r, d, c, f]
            pmf[kept.sum():] = 0.0
            live = np.flatnonzero(pmf)
            if not live.size:
                assert np.all(cdf[r] == np.inf)
                continue
            last = live[-1]
            assert np.all(cdf[r, last:] == np.inf)
            assert np.array_equal(cdf[r, :last], np.cumsum(pmf)[:last])
            assert np.all(np.diff(cdf[r, :last]) >= 0)

    def test_one_settled_table_then_one_per_block(self):
        # the super-blocks of the top power that end at or past the kernel's
        # row R - 1 read h from the stored row of t's parity, so they share
        # one law, drawn once each; every other super-block and the short
        # block take a law of their own, once. The visit walks stop their
        # doubling at the cap (n = 12 at 32 blocks, check 08 at 4), the
        # vacant walk at its full blocks
        for n, x0, site, bounds, t in ((12, 6, 2, (1, 9), 3000), (40, 20, None, (2, 39), 4507),
                                       (48, 24, 2, None, 5602)):
            kernel = rk.SurvivalKernel(n, t)
            R = len(kernel._log_z) - 1
            yields = list(rk._block_laws(kernel, x0, t, site, bounds))
            schedule = _assert_schedule(kernel, x0, t, site, bounds, yields)
            (L, shared), top = schedule[0], schedule[0][0] // rk._BLOCK
            assert shared >= 1 and top == {12: 32, 40: 128, 48: 4}[n]
            # the shared law is the top power's at its first stretch and at
            # its last, bit for bit; a next top stretch, which ends before
            # R - 1, takes another law
            killed = _killed_power(n, top, x0 % 2, site, bounds)
            last = t - (shared - 1) * L
            for s0 in (t, last):
                law = rk._h_transform(kernel, killed, s0 - L, x0 % 2)
                assert law.tobytes() == yields[0][1].tobytes()
            if schedule[1] == (L, 1):
                assert last - 2 * L < R - 1 and shared > 1
                assert not np.array_equal(yields[1][1], yields[0][1])
                assert yields[1][1].tobytes() == \
                    rk._h_transform(kernel, killed, last - 2 * L, x0 % 2).tobytes()
            else:
                assert n != 48

    @pytest.mark.parametrize("t, settled", [(0, 0), (20, 0), (119, 0), (149, 0), (150, 1),
                                            (320, 6), (1000, 27)])
    def test_schedule_edges(self, t, settled):
        # n = 12 stores the rows up to R = s* + 1 = 119: t < 32 is one short
        # block, t <= R + 30 has no full block past R - 1, t = R + 31 has
        # exactly one, and a multiple of 32 has no short block. n = 12's laws
        # are small enough that the top power is the largest power of two at
        # most the full blocks (6 = 4 + 2, 31 = 16 + 8 + 4 + 2 + 1); of the
        # settled blocks, those past R - 1, settled // top super-blocks of
        # the top power share one law
        kernel = rk.SurvivalKernel(12, 1000)
        assert len(kernel._log_z) - 1 == 119
        blocks = t // rk._BLOCK
        assert settled == max(0, (t - 118) // rk._BLOCK)
        top = 1 << max(blocks.bit_length() - 1, 0)
        for x0, site, bounds in ((6, None, None), (5, 3, (1, 11))):
            yields = list(rk._block_laws(kernel, x0, t, site, bounds))
            schedule = _assert_schedule(kernel, x0, t, site, bounds, yields)
            assert blocks == 0 or schedule[0] == (rk._BLOCK * top, max(1, settled // top))

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 40, 48, 80])
    def test_batches_keep_the_one_block_bits(self, n):
        # every super-block is a batch of blocks composed from the one-block
        # killed law, whose bits are exact: each cell of it, and of a short
        # block's, is 2**-steps times the integer number of killed paths
        # with its marks, found by enumeration, with ==. Both parities, with
        # no mark, a visit and a contact
        for site, bounds in ((None, None), (max(1, n // 3), None), (None, (1, n - 2))):
            for steps in (rk._BLOCK, 10):
                counts = _path_counts(n, steps, site, bounds)
                for parity in (0, 1):
                    killed = rk._killed_block(n, steps, parity, site, bounds)
                    rows, _, slots, flags = killed.shape
                    x = 2 * np.arange(rows) + parity
                    y = 2 * np.arange(rows) + parity - steps % 2
                    ref = np.zeros(killed.shape)
                    on_x, on_y = (0 < x) & (x < n), (0 < y) & (y < n)
                    ref[np.ix_(on_x, on_y)] = counts[np.ix_(x[on_x], y[on_y])][..., :slots, :flags]
                    assert np.array_equal(np.ldexp(killed, steps), ref)
                    # no path is left out: every count with the start's parity is in ref
                    assert ref.sum() == counts[x[on_x]].sum()

    def test_band_stops_at_one_block(self):
        # past _BLOCK steps a count of paths may pass 2**53, so a band's
        # cells would no longer be exact: the band refuses them
        for steps in (rk._BLOCK + 1, 2 * rk._BLOCK):
            with pytest.raises(ValueError, match="at most 32 steps"):
                rk._killed_band(12, steps, 0)
        assert rk._killed_band(12, rk._BLOCK, 0).shape == (7, rk._BLOCK + 1, 1, 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 12, 13, 24, 31, 32, 33, 40, 48, 80,
                                   96, 160, 1000])
    def test_unmarked_band_is_the_recursion(self, n):
        # the method of images gives the step-by-step recursion killed at 0
        # and n bit for bit: both are exact
        for steps, parity in product((0, 1, 5, 10, 17, 31, 32), (0, 1)):
            x = 2 * np.arange(n // 2 + 1) + parity
            ref = rk._block_recursion((0 < x) & (x < n), parity, steps, (0, n))
            band = rk._killed_band(n, steps, parity)
            assert band.shape == (len(x), steps + 1, 1, 1)
            assert np.array_equal(band[:, :, 0, 0], ref[0])

    @pytest.mark.parametrize("walk", SWEEP_WALKS, ids=str)
    def test_end_rows_match_the_scatter(self, walk, monkeypatch):
        # both killed laws the walk builds, the block's and the short last
        # block's, take their end rows with the bits of the scatter, which
        # finds no mass outside the rows
        n, x0, site, bounds, _ = walk
        t = rk.ring_time_scale(n, 1.0)
        by_end_row, checked = rk._by_end_row, []

        def compared(law):
            out = by_end_row(law)
            assert out.tobytes() == _by_end_row_scatter(law).tobytes()
            checked.append(law.shape[1] - 1)
            return out

        monkeypatch.setattr(rk, "_by_end_row", compared)
        for _ in rk._block_laws(rk.SurvivalKernel(n, t), x0, t, site, bounds):
            pass
        assert checked == [rk._BLOCK, t % rk._BLOCK]

    @pytest.mark.parametrize("walk", SWEEP_WALKS, ids=str)
    def test_walk_outputs_keep_their_bits(self, walk):
        n, x0, site, bounds, M = walk
        t = rk.ring_time_scale(n, 1.0)
        gen = RngState(0).generator()
        visits, inside = rk._ring_paths_batch(rk.SurvivalKernel(n, t), x0, t, M, gen,
                                              site, bounds)
        digest = hashlib.sha256()
        for a in (visits, inside):
            if a is not None:
                digest.update(a.tobytes())
        digest.update(repr(gen.bit_generator.state).encode())
        assert digest.hexdigest() == WALK_OUTPUTS_SHA256[n]

    def test_extreme_uniforms_take_outcomes_of_positive_mass(self):
        # u = 0 takes a law's first outcome of positive mass, never a
        # zero-mass one before it: 64 steps are one super-block, and from
        # the edge site 1 its lowest end row is site 1 again; among those
        # paths the fewest visits to 2 are two, at the first step and the
        # last but one (the walk climbs to 3 and stays above 2 in between).
        # The largest u below 1 takes the last outcome of one block: end
        # site 11, the most visits to 1, 11 (bouncing on it first, then up
        # to 11), and a bound touched
        class Constant:
            def __init__(self, value):
                self.value = value

            def random(self, out):
                out[...] = self.value

        kernel = rk.SurvivalKernel(12, 64)
        low, top = Constant(0.0), Constant(np.nextafter(1.0, 0.0))
        assert [(steps, draws) for steps, _, draws in
                rk._block_laws(kernel, 1, 64, 2, (0, 12))] == [(64, 1)]
        visits, inside = rk._ring_paths_batch(kernel, 1, 64, 3, low, 2, (0, 12))
        assert visits.tolist() == [2] * 3 and inside.all()
        visits, inside = rk._ring_paths_batch(kernel, 1, 32, 3, top, 1, (0, 11))
        assert visits.tolist() == [11] * 3 and not inside.any()

    @pytest.mark.parametrize("n, x0, t, site", [(12, 6, 203, 2), (13, 5, 150, 9),
                                                (12, 6, 480, 2)])
    def test_visit_law_matches_propagation(self, n, x0, t, site):
        # the last walk has 15 full blocks: one super-block of 8, then 4,
        # 2 and 1. Noise model, fixed before any seed ran: each count of M
        # draws is binomial; a cell with M p >= 25 gets z = (count - M p) /
        # sqrt(M p (1 - p)), the cells below pool into one. Each |z| <= 5
        # fails with probability 5.7e-7 under the right law, so at most ~60
        # cells give a family-wise false alarm below 4e-5; a bias of 0.0025
        # in a cell of p = 0.1 reaches z = 5
        M = 4 * 10**5
        exact = _visit_law_exact(n, x0, t, site)[:, 0]
        visits, _ = rk._ring_paths_batch(rk.SurvivalKernel(n, t), x0, t, M,
                                         RngState(11).generator(), visit_site=site)
        counts = np.bincount(visits, minlength=len(exact))
        assert len(counts) == len(exact)
        big = M * exact >= 25
        assert big.sum() >= 10
        obs = np.append(counts[big], counts[~big].sum())
        p = np.append(exact[big], exact[~big].sum())
        z = (obs - M * p) / np.sqrt(M * p * (1 - p))
        assert np.max(np.abs(z)) <= 5


class TestComposedBlockLaws:
    """The batch walk's own laws, composed in its own order, against the
    exact ring laws: a check of the tables at the scale the walk runs, with
    no sampling noise. Each tolerance is the roundings a composed cell may
    carry (:func:`_composed_law`) plus the reference's own, times eps; the
    gaps measured sit three to five orders below it."""

    EPS = np.finfo(float).eps

    def vacant_gap(self, n, x0, a, b):
        """(relative gap of the composed vacant law to the spectral one, its
        tolerance). Spectral values are pinned within 1e-14 of 40-digit sums
        (test_spectral_against_mpmath), far inside the composition's own."""
        t = rk.ring_time_scale(n, 1.0)
        law, roundings = _composed_law(rk.SurvivalKernel(n, t), x0, t, stay_in=(b, n - a))
        exact = rk.vacant_prob_ring_exact(n, t, x0, a, b)
        assert abs(law.sum() - 1) <= roundings * self.EPS
        return abs(law[0, 0] / exact - 1), roundings * self.EPS

    @pytest.mark.parametrize("n, x0, a, b", [(40, 20, 1, 2), (80, 40, 1, 2), (80, 40, 5, 9)])
    def test_vacant_walk(self, n, x0, a, b):
        # check 07b's walk, and sampling-scale's n = 80 walk with a near and
        # a far interval. Tolerance at n = 80: six laws, the top one of 512
        # blocks, 104,865 roundings, 2.3e-11 (the walk of one law per block
        # and settled powers counted 221,258); the gaps measured were 1.0e-15
        # at n = 40 and 2.7e-15 and 4.4e-15 at n = 80
        gap, tol = self.vacant_gap(n, x0, a, b)
        assert gap <= tol

    @pytest.mark.parametrize("n, x0, t, site, cap",
                             [(12, 6, 203, 2, None), (13, 5, 150, 9, None),
                              (48, 24, 5602, 2, 200)])
    def test_visit_walk(self, n, x0, t, site, cap):
        # the last is check 08's walk (2n = 48, x = 2, alpha = 1), visits
        # above 200 lumped on both sides. The reference adds once a step
        # (the halving is exact) and divides once; at 2n = 48 the tolerance
        # is 46 draws of 20 laws, the top power of 4 blocks drawn 43 times,
        # 31,222 roundings plus 5603: 8.2e-12 on a cell of at most 1 (was
        # 226,433); the gap measured was 1.1e-16
        kernel = rk.SurvivalKernel(n, t)
        law, roundings = _composed_law(kernel, x0, t, visit_site=site,
                                       cap=t if cap is None else cap)
        exact = _visit_law_exact(n, x0, t, site, cap)
        assert law.shape == exact.shape and not law[:, 1].any()
        assert np.max(np.abs(law - exact)) <= (roundings + t + 1) * self.EPS

    @pytest.mark.parametrize("x0, t, site, bounds",
                             [(6, 394, 3, (1, 9)), (5, 150, 2, (2, 11)), (7, 394, 1, (0, 10))])
    def test_visit_and_bounds(self, x0, t, site, bounds):
        # both marks at once on the ring of 12 (R = 119): stretches past,
        # across and before R, both start parities, the visit site on a
        # bound and on the edge, a bound off the segment; t = 150 has one
        # full block past R - 1. The reference is the propagation over
        # (f, k, y)
        n = 12
        law, roundings = _composed_law(rk.SurvivalKernel(n, t), x0, t, site, bounds, cap=t)
        exact = _visit_law_exact(n, x0, t, site, bounds=bounds)
        assert law[:, 0].sum() > 1e-8 and law[:, 1].sum() > 0.5
        assert np.max(np.abs(law - exact)) <= (roundings + t + 1) * self.EPS

    @pytest.mark.parametrize("n", [12, 13, 40])
    def test_settled_powers_match_direct_blocks(self, n):
        """The 2- and 4-block killed laws, composed as rk._block_laws
        doubles them (rk._compose), against the killed walk stepped directly
        over 64 and 128 steps (_killed_law_direct), and their laws
        h-transformed past R.

        The direct walk's step is a sum of two cells times 1/2: the halving
        is exact, the add rounds once, the visit mark moves mass without
        arithmetic, and the contact mark adds once more. Every term is
        positive, so a path's mass rounds at most twice a step and the
        direct law is within 2 steps eps of the path sum, relative, to first
        order. The composed
        law of B = 2**j blocks is within (B - 1)(rows + 2F) + F j (C - 1) / 2
        (:func:`_composed_law`); each cell's gap within their sum. The
        h-transform scales both by the same row and divides by their row
        sums, so their laws are as close.
        """
        t = rk._settled_steps(n) + 200
        kernel = rk.SurvivalKernel(n, t)
        R = len(kernel._log_z) - 1
        assert t - 4 * rk._BLOCK + 1 >= R
        gaps = []
        for parity in (0, 1):
            for site, bounds in ((n // 3, (1, n - 2)), (n // 2 + 1, None), (None, (2, n))):
                composed = rk._killed_block(n, rk._BLOCK, parity, site, bounds)
                for blocks, j in ((2, 1), (4, 2)):
                    steps = blocks * rk._BLOCK
                    composed = rk._compose(composed, composed)
                    direct = _killed_law_direct(n, steps, parity, site, bounds,
                                                composed.shape[2])
                    assert composed.shape == direct.shape
                    rows, _, slots, flags = composed.shape
                    tol = (2 * steps + (blocks - 1) * (rows + 2 * flags)
                           + flags * j * (slots - 1) // 2) * self.EPS
                    assert np.array_equal(composed > 0, direct > 0)
                    live = direct > 0
                    gap = np.abs(composed[live] / direct[live] - 1)
                    assert gap.max() <= tol
                    gaps.append(gap.max() / tol)
                    laws = [rk._h_transform(kernel, k, t - steps, parity)
                            for k in (composed, direct)]
                    assert np.max(np.abs(laws[0] - laws[1])) <= \
                        2 * tol + (slots * flags + rows + 1) * self.EPS
        assert max(gaps) > 0

    def test_planted_up_step_defect(self, monkeypatch):
        # h 1e-6 too high, relative, at site 20 of every kernel row its
        # readers get, a defect that check 07b's sampler at M = 2e4 cannot
        # see, moves its composed vacant law by 2.6e-8 relative, some 1.2e4
        # tolerances: the walk reads h only at the ends of its five laws
        row = rk.SurvivalKernel._h_row

        def biased(self, r):
            h = row(self, r).copy()
            h[20] *= 1 + 1e-6
            return h

        monkeypatch.setattr(rk.SurvivalKernel, "_h_row", biased)
        gap, tol = self.vacant_gap(40, 20, 1, 2)
        assert gap > 1e4 * tol


def test_08_null_false_alarm_rate():
    # 08's TV statistic under the exact ring law, with no sampler involved:
    # 2,000 multinomial draws of M = 2e4 from the exact law of the visits to
    # 2 on the ring of 48 sites (the propagation, visits above 200 lumped),
    # scored against the limit law local_time_pmf(2, 1) as 08 scores its
    # sample. None passes the threshold 0.05: the exact law is 0.0321 from
    # the limit, the statistic's median 0.0340, its 99th percentile 0.0415
    # and its largest value 0.0450
    M, threshold, draws = 2 * 10**4, 0.05, 2000
    exact = _visit_law_exact(48, 24, 5602, 2, 200)[:, 0]
    limit = il.local_time_pmf(2, 1.0)
    counts = RngState(7).generator().multinomial(M, exact, size=draws)
    tvs = np.array([tv_distance(c / M, limit) for c in counts])
    assert tv_distance(exact, limit) == pytest.approx(0.0321, abs=5e-5)
    assert np.median(tvs) == pytest.approx(0.0340, abs=5e-5)
    assert (tvs > threshold).sum() == 0


class TestVacantRing:
    def test_t0_and_domain(self):
        assert rk.vacant_prob_ring_exact(10, 0, 5, 1, 1) == 1.0
        with pytest.raises(ValueError):
            rk.vacant_prob_ring_exact(10, 5, 5, 0, 0)
        with pytest.raises(ValueError):
            rk.vacant_prob_ring_exact(10, 5, 2, 1, 3)

    def test_negative_horizon_raises(self):
        # every spectral consumer: a negative t must not be read as t = 0
        calls = [lambda: rk.vacant_prob_ring_exact(10, -5, 5, 1, 1),
                 lambda: rk.h_spectral_log(10, 5, -1),
                 lambda: rk.h_over_t1_deviation(10, 5, -4)]
        for call in calls:
            with pytest.raises(ValueError, match="need t >= 0, got -"):
                call()

    def test_structural_bound(self):
        p = rk.vacant_prob_ring_exact(10, 20, 5, 0, 1)
        assert 0 < p < 1

    def test_negative_spectral_sum_raises(self, monkeypatch):
        # a negative signed sum is cancellation, not a probability of 0
        monkeypatch.setattr(rk, "h_spectral_log",
                            lambda n, x, t: (np.zeros(np.shape(x)), -np.ones(np.shape(x))))
        with pytest.raises(RuntimeError, match="n=9, x=4, t=20"):
            rk.vacant_prob_ring_exact(10, 20, 5, 0, 1)
        with pytest.raises(RuntimeError, match="n=16, x=2, t=20"):
            rk.no_hit_prob_exact(8, 40, 20, 1)

    def test_negative_denominator_raises(self, monkeypatch):
        # only the scalar sum h_n(x0, t) is negative: every per-site sum of a
        # first leg is the true one, so the sign of h_n(x0, t) alone must fail
        real = rk.h_spectral_log

        def patched(n, x, t):
            log_abs, sign = real(n, x, t)
            return (log_abs, -sign) if np.ndim(x) == 0 else (log_abs, sign)

        monkeypatch.setattr(rk, "h_spectral_log", patched)
        calls = [lambda: rk.no_hit_prob_exact(8, 40, 20, 1),
                 lambda: rk.mid_tail_check(8, 40, 20, 3),
                 lambda: rk.verify_pi4(16, 40, 5)]
        for call in calls:
            with pytest.raises(RuntimeError, match="negative"):
                call()

    def test_exact_zero_stays_zero(self, monkeypatch):
        # sign 0 in the numerator h_9(4, 20) encodes an exact zero
        monkeypatch.setattr(rk, "h_spectral_log",
                            lambda n, x, t: (0.0, 0.0 if n == 9 else 1.0))
        assert rk.vacant_prob_ring_exact(10, 20, 5, 0, 1) == 0.0

    def test_two_site_gap_exact_zero(self):
        # from x0 = 3 on 5 sites both first steps land in [-1, 2]; the
        # remaining segment has two sites, whose spectral sum is exactly 0
        assert rk.vacant_prob_ring_exact(5, 1, 3, 1, 2) == 0.0

    def test_against_direct_dp(self):
        # avoiding [-a, b] == surviving in the shifted sub-segment
        n, t, x0, a, b = 12, 30, 6, 2, 1
        expected = rk.h_dp(n - a - b, x0 - b, t) / rk.h_dp(n, x0, t)
        assert rk.vacant_prob_ring_exact(n, t, x0, a, b) == \
            pytest.approx(expected, rel=1e-10)

    def test_against_direct_dp_at_check_scale(self):
        # the oracle of acceptance check 07 at its own inputs
        for n in (40, 80):
            t = rk.ring_time_scale(n, 1.0)
            expected = rk.h_dp(n - 3, n // 2 - 2, t) / rk.h_dp(n, n // 2, t)
            assert rk.vacant_prob_ring_exact(n, t, n // 2, 1, 2) == \
                pytest.approx(expected, rel=1e-10)

    def test_mc_agreement(self):
        n, t, x0, a, b = 14, 60, 7, 1, 1
        exact = rk.vacant_prob_ring_exact(n, t, x0, a, b)
        kernel = rk.SurvivalKernel(n, t)
        M = 20000
        _, inside = rk._ring_paths_batch(kernel, x0, t, M,
                                         RngState(3).generator(),
                                         stay_in=(b, n - a))
        est = inside.mean()
        assert abs(est - exact) <= 4 * math.sqrt(exact * (1 - exact) / M)


class TestVacantRatioLevels:
    """n log r_n of the vacant set [-1, 2] tends to -27 alpha / 4 at every level.

    r_n is the exact ring vacant probability at x0 = n/2, averaged over the
    horizons t and t + 1 (t = ring_time_scale(n, alpha)) to cancel the
    parity mode, over its limit e^{-3 alpha/2}. The Richardson steps
    R_n = 2 r_{2n} - r_n at n = 80, 160, 320 measured, as gaps to the limit:
    alpha = 1/4: 3.6e-3, 1.1e-3, 2.2e-4; alpha = 1: 1.5e-2, 2.6e-3, 7.7e-4;
    alpha = 4: 4.5e-2, 1.2e-2, 3.0e-3. That is a positive O(n^-2) residual:
    each doubling divides it by 3.4 to 5.7, and the last gap is 1.10e-4 to
    1.31e-4 of the limit. The bands admit ratios in (2.8, 8), which rejects
    an O(1/n) residual (ratio 2), and a last gap below 2.5e-4 of the limit.
    """

    @staticmethod
    def richardson_gaps(alpha):
        r = {}
        for n in (80, 160, 320, 640):
            t = rk.ring_time_scale(n, alpha)
            p = 0.5 * (rk.vacant_prob_ring_exact(n, t, n // 2, 1, 2)
                       + rk.vacant_prob_ring_exact(n, t + 1, n // 2, 1, 2))
            r[n] = n * (math.log(p) + 1.5 * alpha)
        return [2 * r[2 * n] - r[n] + 27 * alpha / 4 for n in (80, 160, 320)]

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    def test_richardson_steps_approach_the_limit(self, alpha):
        gaps = self.richardson_gaps(alpha)
        assert all(g > 0 for g in gaps)
        assert all(2.8 < g / g_next < 8 for g, g_next in zip(gaps, gaps[1:]))
        assert gaps[-1] < 2.5e-4 * (27 * alpha / 4)


class TestRingLocalTime:
    def test_determinism(self):
        a = rk.ring_local_time_batch(6, 1.0, 2, 5, RngState(8, 4).generator())
        b = rk.ring_local_time_batch(6, 1.0, 2, 5, RngState(8, 4).generator())
        assert np.array_equal(a, b)

    def test_domain(self):
        gen = RngState(0).generator()
        for n_half, alpha, x in ((1, 1.0, 1), (6, 1.0, 0), (6, 1.0, 12), (6, 0.0, 2)):
            with pytest.raises(ValueError):
                rk.ring_local_time_batch(n_half, alpha, x, 5, gen)

    def test_limit_law(self):
        visits = rk.ring_local_time_batch(24, 1.0, 2, 20000,
                                          RngState(7).generator())
        law = il.local_time_pmf(2, 1.0)
        emp = np.bincount(visits) / len(visits)
        assert tv_distance(emp, law) <= 0.05
        # the finite-ring zero class sits ~7% below the e^-1 limit, so test
        # the sampler against the exact kernel-ratio oracle instead
        t = int(4 * 24**3 / math.pi**2)
        exact0 = rk.vacant_prob_ring_exact(48, t, 24, 0, 2)
        p0 = float(np.mean(visits == 0))
        M = len(visits)
        assert abs(p0 - exact0) <= 4 * math.sqrt(exact0 * (1 - exact0) / M)
        assert abs(p0 - math.exp(-1)) <= 0.1 * math.exp(-1)


def _endpoint_small_prob_ring(n, t, x, delta, y):
    """(exact, asymptotic) for P[X_delta <= y] under the t-horizon ring law.

    Exact by killed propagation, cut to the endpoints <= y and reweighted
    with the remaining-time kernel; the asymptotic is
    sqrt(2/pi) y^3 / (3 delta^{3/2}), valid for y^2 = o(delta) and
    delta = o(n^2).
    """
    asym = math.sqrt(2 / math.pi) * y**3 / (3 * delta**1.5)
    if y == 0:
        return 0.0, asym
    w, log_mass = _propagate_killed(n, x, delta)
    sites = np.flatnonzero(w[:y + 1])
    log_num = logsumexp(np.log(w[sites]) + rk._log_h(n, sites, t - delta))
    return math.exp(log_mass + log_num - rk._log_h(n, x, t)), asym


class TestPropagationChecks:
    def test_pi4(self):
        n = 200
        delta = math.ceil(config.cond_threshold(n))
        for a in (1, 50, 100):
            val, ok = rk.verify_pi4(n, delta, a)
            assert ok
            assert abs(val / (math.pi / 4) - 1) <= config.first_mode_rel_tol(n)

    def test_pi4_delta_insensitive(self):
        n = 60
        delta = math.ceil(config.cond_threshold(n))
        v1, _ = rk.verify_pi4(n, delta, 7)
        v2, _ = rk.verify_pi4(n, 2 * delta, 7)
        assert abs(v2 / v1 - 1) <= 2 * config.first_mode_rel_tol(n)

    def test_no_hit(self):
        n_half = 60
        delta = math.ceil(config.cond_threshold(2 * n_half))
        t = 2 * delta
        exact, asym, ok = rk.no_hit_prob_exact(n_half, t, delta, 1)
        assert ok
        assert abs(exact / asym - 1) <= config.no_hit_rel_tol(n_half)

    def test_no_hit_trivial_and_monotone(self):
        n_half = 20
        delta = math.ceil(config.cond_threshold(2 * n_half))
        t = 2 * delta
        one, _, _ = rk.no_hit_prob_exact(n_half, t, 0, 3)
        assert one == 1.0
        vals = [rk.no_hit_prob_exact(n_half, t, delta, x)[0] for x in (1, 2, 4)]
        assert vals[0] > vals[1] > vals[2]

    def test_mid_tail(self):
        n_half = 40
        delta = math.ceil(config.cond_threshold(2 * n_half))
        t = 2 * delta
        slack = 1 + config.mid_tail_slack(n_half)
        for x in (10, 20, 30, 38):
            exact, bound = rk.mid_tail_check(n_half, t, delta, x)
            assert exact <= bound * slack

    def test_mid_tail_bound_decreases_in_delta(self):
        n_half = 30
        d0 = math.ceil(config.cond_threshold(2 * n_half))
        b = [rk.mid_tail_check(n_half, 4 * d0, d, 10)[1] for d in (d0, 2 * d0)]
        assert b[0] > b[1]

    def test_endpoint_ring_y0(self):
        t = math.ceil(config.cond_threshold(50))
        exact, asym = _endpoint_small_prob_ring(50, t, 5, 100, 0)
        assert exact == 0.0 and asym == 0.0

    def test_endpoint_ring_vs_line(self):
        # large n: the conditioned ring walk converges to the line walk
        from ri1d import core_walks as cw
        n, x, delta, y = 2000, 2, 2000, 6
        t = math.ceil(config.cond_threshold(n))
        ring, _ = _endpoint_small_prob_ring(n, t, x, delta, y)
        line, _ = cw.endpoint_leq_prob(x, delta, y)
        assert abs(ring / line - 1) <= 0.01


def _exact_killed_steps(v, steps, kill):
    """Exact rational killed-walk vectors after 0..steps steps."""
    n = len(v) - 1
    out = [v]
    for _ in range(steps):
        v = [(v[x - 1] + v[x + 1]) / 2 if 0 < x < n and x not in kill
             else Fraction(0) for x in range(n + 1)]
        out.append(v)
    return out


class TestKilledWalkOracles:
    def test_kernel_rows_and_h_dp_exact(self):
        t = 40
        for n in (2, 3, 6, 12):
            exact = _exact_killed_steps(
                [Fraction(int(0 < x < n)) for x in range(n + 1)], t, ())
            kernel = rk.SurvivalKernel(n, t)
            for s in range(t + 1):
                for x in range(n + 1):
                    assert kernel.h(x, s) == pytest.approx(
                        float(exact[s][x]), rel=1e-13, abs=0)
            for x in range(n + 1):
                assert rk.h_dp(n, x, t) == pytest.approx(
                    float(exact[t][x]), rel=1e-13, abs=0)

    def test_forward_distribution_exact(self):
        for n, start, k in ((6, 2, 4), (12, 3, 7), (12, 9, 7), (12, 5, 1)):
            point = [Fraction(int(x == start)) for x in range(n + 1)]
            exact = _exact_killed_steps(point, 40, (k,))
            for steps in (0, 1, 7, 40):
                w, log_mass = _propagate_killed(n, start, steps, (k,))
                mass = sum(exact[steps])
                assert log_mass == pytest.approx(
                    math.log(mass.numerator) - math.log(mass.denominator),
                    abs=1e-13)
                ref = [float(p / mass) for p in exact[steps]]
                np.testing.assert_allclose(w, ref, rtol=1e-13, atol=0)

    def test_killed_site_start(self):
        with pytest.raises(ValueError):
            _propagate_killed(10, 4, 5, (4,))
        with pytest.raises(ValueError):
            _propagate_killed(10, 10, 5)

    def test_pi4_closed_form(self):
        # the eigenvector form against the forward law it replaces:
        # E_a[sin(pi X_delta/n) | survival] = sum_z w(z) sin(pi z/n)
        for n in (20, 60, 200):
            delta = math.ceil(config.cond_threshold(n))
            for a in (1, n // 3):
                val, _ = rk.verify_pi4(n, delta, a)
                w, _ = _propagate_killed(n, a, delta)
                ref = float(np.dot(w, np.sin(np.pi * np.arange(n + 1) / n)))
                assert abs(val / ref - 1) <= 1e-12

    def test_pi4_against_mpmath(self):
        # cos^delta(pi/n) sin(pi a/n) / h_n(a, delta) at 50 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for n in (20, 60, 200, 400):
                delta = math.ceil(config.cond_threshold(n))
                theta = [mpmath.pi * (2 * j - 1) / n for j in range(1, n // 2 + 1)]
                for a in (1, n // 3, n // 2):
                    h = sum(2 * mpmath.cos(th)**delta * mpmath.cot(th / 2)
                            * mpmath.sin(a * th) for th in theta) / n
                    ref = mpmath.cos(mpmath.pi / n)**delta \
                        * mpmath.sin(mpmath.pi * a / n) / h
                    val, _ = rk.verify_pi4(n, delta, a)
                    assert abs(float(val / ref) - 1) <= 5e-15

    def test_pi4_impossible_conditioning(self):
        # at n = 2 the walk from 1 dies at step 1: no conditional expectation
        assert rk.verify_pi4(2, 0, 1)[0] == pytest.approx(1.0, rel=1e-15)
        for delta in (1, 3):
            with pytest.raises(ValueError, match=f"n=2, delta={delta}"):
                rk.verify_pi4(2, delta, 1)

    def test_surviving_log_mass_vs_spectral(self):
        n = 200
        delta = math.ceil(config.cond_threshold(n))
        for start in (1, 100):
            _, log_mass = _propagate_killed(n, start, delta)
            assert abs(log_mass - float(rk.h_spectral_log(n, start, delta)[0])) <= 1e-9
        # an extra killed site k confines the walk from start < k to (0, k)
        _, log_mass = _propagate_killed(n, 60, delta, (120,))
        assert abs(log_mass - float(rk.h_spectral_log(120, 60, delta)[0])) <= 1e-9

    # the engine rescales at step 1, every 32 steps after it and at the last
    # step; the rows between rescalings are unnormalized sums
    RESCALE_STEPS = (1, 2, 31, 32, 33, 34, 64, 65, 97, 100)

    def test_across_rescale_boundaries(self):
        t = 100
        for n in (12, 41):
            exact = _exact_killed_steps(
                [Fraction(int(0 < x < n)) for x in range(n + 1)], t, ())
            kernel = rk.SurvivalKernel(n, t)
            for s in range(t + 1):
                for x in range(1, n):
                    assert kernel.h(x, s) == pytest.approx(
                        float(exact[s][x]), rel=1e-13, abs=0)
            for s in self.RESCALE_STEPS:
                assert rk.h_dp(n, n // 3, s) == pytest.approx(
                    float(exact[s][n // 3]), rel=1e-13, abs=0)
        for n, start, k in ((12, 3, 7), (41, 30, 9)):
            point = [Fraction(int(x == start)) for x in range(n + 1)]
            exact = _exact_killed_steps(point, t, (k,))
            for steps in self.RESCALE_STEPS:
                w, log_mass = _propagate_killed(n, start, steps, (k,))
                mass = sum(exact[steps])
                assert log_mass == pytest.approx(
                    math.log(mass.numerator) - math.log(mass.denominator),
                    rel=1e-13, abs=1e-13)
                ref = [float(p / mass) for p in exact[steps]]
                np.testing.assert_allclose(w, ref, rtol=1e-13, atol=0)

    def test_all_dead(self):
        # n = 2 and a start between two killed sites lose everything at step 1
        for steps in (1, 2, 40):
            for length, start, kill in ((2, 1, ()), (10, 4, (3, 5))):
                w, log_mass = _propagate_killed(length, start, steps, kill)
                assert log_mass == -math.inf
                assert not w.any()
            assert rk.h_dp(2, 1, steps) == 0.0
            assert rk.h_spectral(2, 1, steps) == 0.0
        kernel = rk.SurvivalKernel(2, 40)
        assert np.all(kernel._log_z[1:] == -math.inf)
        assert not _kernel_rows(kernel)[1:].any()

    def test_scale_never_overflows(self):
        # at n = 3 the mass from site 1 halves every step: log mass -t ln 2
        t = 5000
        w, log_mass = _propagate_killed(3, 1, t)
        assert log_mass == pytest.approx(-t * math.log(2), rel=1e-12)
        assert w.tolist() == [0.0, float(t % 2 == 0), float(t % 2 == 1), 0.0]
        # at n = 64 the unhalved sums grow like (2 cos(pi/64))^t and would
        # pass the double range after about 1030 steps without rescaling
        assert rk.h_dp(64, 32, t) == pytest.approx(rk.h_spectral(64, 32, t),
                                                   rel=1e-11)
        table = _kernel_rows(rk.SurvivalKernel(64, t))
        assert np.all(np.isfinite(table))
        assert table.max() < 2.0**32

    def test_results_independent_of_heap_contents(self):
        # freed blocks of the engine's buffer sizes, filled with NaN or 1e300,
        # must not reach any result
        def run():
            kernel = rk.SurvivalKernel(40, 300)
            w, log_mass = _propagate_killed(30, 4, 200, (11,))
            rows = [kernel._h_row(s).copy() for s in (1, 33, 300)]
            return [rk.h_dp(40, 17, 300), rk.verify_pi4(60, 500, 7)[0],
                    w, log_mass, *rows, kernel._log_z[[1, 33, 300]]]

        first = run()
        for size in (31, 41, 61):
            for fill in (np.nan, 1e300):
                junk = [np.full(size, fill) for _ in range(16)]
                del junk
        second = run()
        assert [np.asarray(v).tobytes() for v in first] == \
            [np.asarray(v).tobytes() for v in second]


def _killed_steps(v, steps, kill):
    """Rows 0..steps of the killed walk and their log scales, yielded one
    step and one rescale test at a time: the reference of rk._killed_walk.

    Every step stores the unhalved sums and counts the halving in the
    exponent e; the first step, every 32nd after it and the last scale the
    row by the power of two that brings its max into [1/2, 1).
    """
    n, kill = len(v) - 1, list(kill)
    w = np.zeros(n + 1)
    w[1:n] = v[1:n]
    w[kill] = 0.0
    e = 0
    yield w, 0.0
    for step in range(steps):
        prev, w = w, np.zeros(n + 1)
        np.add(prev[:n - 1], prev[2:], out=w[1:n])
        w[kill] = 0.0
        e -= 1
        if step % 32 == 0 or step == steps - 1:
            m = w.max()
            if m == 0.0:
                e = -math.inf
            else:
                shift = math.frexp(m)[1]
                w = np.ldexp(w, -shift)
                e += shift
        yield w, e * math.log(2.0)


def _killed_steps_loop(v, steps, kill):
    """Every row of :func:`_killed_steps`, as (rows, log_z) arrays."""
    rows, log_z = zip(*_killed_steps(v, steps, kill))
    return np.array(rows), np.array(log_z)


def _killed_steps_last(v, steps, kill):
    """The last row of :func:`_killed_steps` and its log scale, holding one
    row at a time."""
    return deque(_killed_steps(v, steps, kill), maxlen=1)[0]


def _leg_prob(n, x0, t, delta, row, log_z):
    """The first-leg probability from the row of P_x0[X_delta = z, alive]
    over the n + 1 sites, times exp(log_z): the sum of _first_leg_prob,
    row by row weighted by h_n(z, t - delta), over h_n(x0, t)."""
    sites = np.flatnonzero(row)
    log_num = rk._logsumexp(np.log(row[sites]) + rk._log_h(n, sites, t - delta))
    return math.exp(log_z + float(log_num) - rk._log_h(n, x0, t))


def _spectral_h_mpmath(n, x, t):
    """h_n(x, t) from the odd-mode spectral sum at 40 digits, as a float."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        theta = [mpmath.pi * (2 * j - 1) / n for j in range(1, n // 2 + 1)]
        return float(sum(2 * mpmath.cos(th)**t * mpmath.cot(th / 2) * mpmath.sin(x * th)
                         for th in theta) / n)


#: sha256 of the float64 bytes of SurvivalKernel(160, ring_time_scale(160, 1))
#: (its rows 0..R, then their log scales), as the per-step killed walk computed them
#: before it stepped in runs, and of h_dp(1000, 500, 250000) and of
#: no_hit_prob_exact(120, 2 delta, delta, 1) with delta =
#: ceil(cond_threshold(240)), as the killed sum through K_32's band computes
#: them, meeting in the middle; TestKilledRow.test_digested_values_vs_references
#: holds the last two to independent references
KILLED_WALK_SHA256 = {
    "kernel_table": "6c81bed9fe2f049d4a0adb284b87e643fdfe99b6a2b3f41982bc493a8fb8da7f",
    "kernel_log_z": "ceaebef47ecbd24ca20dc8ff417e5c31b73b92e86f43ca2aa47016fff42f737a",
    "h_dp": "d6ee17c08447ae27933e534e3ef1eadeb5545ea08ef91cbdde9e71d1b0743a8e",
    "no_hit": "b449e4d11e1bb3280aee531c3944f3dcead6837f3cec176a4734a8a7a726501c",
}


def _sha256(value) -> str:
    return hashlib.sha256(np.asarray(value, dtype=np.float64).tobytes()).hexdigest()


class TestKilledWalkRuns:
    """_killed_walk's runs of 32 steps against the one-step loop, bit for bit.

    A walk with killed sites inside the segment runs on its start's part
    (:func:`_walk_part`) and is compared on the full row.
    """

    #: a walk's first and last steps around the first three rescalings
    STEPS = (0, 1, 31, 32, 33, 64, 65)

    #: (n, start, extra killed sites); start None is the all-ones vector
    CASES = [(12, None, ()), (41, None, ()), (41, 30, (9,)), (41, 20, (9, 33)),
             (200, 1, (150,))]

    @staticmethod
    def start_vector(n, start, kill):
        v = np.zeros(n + 1)
        if start is None:
            v[1:n] = 1.0
        else:
            v[start] = 1.0
        return v

    @pytest.mark.parametrize("n,start,kill", CASES)
    def test_rows_are_the_loop(self, n, start, kill):
        v = self.start_vector(n, start, kill)
        for steps in self.STEPS:
            ref_rows, ref_z = _killed_steps_loop(v, steps, kill)
            rows, log_z = _walk_part(v, steps, kill, start)
            assert rows.tobytes() == ref_rows.tobytes()
            assert log_z.tobytes() == ref_z.tobytes()

    @pytest.mark.parametrize("n,start,kill", CASES)
    def test_rows_vs_fraction_oracle(self, n, start, kill):
        v = self.start_vector(n, start, kill)
        exact = _exact_killed_steps([Fraction(int(p)) for p in v], 70, kill)
        rows, log_z = _walk_part(v, 70, kill, start)
        for s in range(71):
            ref = [float(p) for p in exact[s]]
            np.testing.assert_allclose(rows[s] * math.exp(log_z[s]), ref,
                                       rtol=1e-13, atol=0)

    def test_all_dead_from_step_one(self):
        # n = 2: the walk from 1 dies at step 1, and every row after it is
        # zero with log scale -inf
        v = np.array([0.0, 1.0, 0.0])
        for steps in (1, 2, 33, 70):
            rows, log_z = _walk_rows(v, steps)
            assert rows[0].tolist() == [0.0, 1.0, 0.0] and log_z[0] == 0.0
            assert not rows[1:].any()
            assert np.all(log_z[1:] == -math.inf)

    def test_input_is_not_written(self):
        v = self.start_vector(41, 30, (9,))
        before = v.copy()
        _walk_rows(v, 40)
        assert v.tobytes() == before.tobytes()

    @pytest.mark.parametrize("n, t", [(5, 30), (12, 96), (12, 97), (12, 400), (48, 5602),
                                      (81, 3000)])
    def test_kernel_rows_are_the_walk(self, n, t):
        # every kernel row its readers get, and every run replayed alone
        # from its stored start row, is the walk's own row from the all-ones
        # vector, bit for bit, with its log scale; the last run has 1, 32
        # or some steps between (R = 97, 96 and 119 at n = 12)
        kernel = rk.SurvivalKernel(n, t)
        rows, log_z = _full_table(n, len(kernel._log_z) - 1)
        assert _kernel_rows(kernel).tobytes() == rows.tobytes()
        assert kernel._log_z.tobytes() == log_z.tobytes()
        for r in range(len(rows)):
            assert kernel._h_row(r).tobytes() == rows[r].tobytes()

    def test_one_run_buffer_a_thread(self, monkeypatch):
        # a kernel builds its run buffer once per reading thread: reading h
        # along a row below R replays the row's run at every site, in the
        # same buffer; a second thread replays in a buffer of its own, so a
        # run it replays leaves the first thread's run as it was
        built = []

        class Counted(rk._RunBuffer):
            def __init__(self, n):
                built.append(n)
                super().__init__(n)

        monkeypatch.setattr(rk, "_RunBuffer", Counted)
        n = 48
        kernel = rk.SurvivalKernel(n, 5602)
        rows, log_z = _full_table(n, len(kernel._log_z) - 1)
        built.clear()
        h = [kernel.h(x, 40) for x in range(n + 1)]
        assert h == [float(rows[40, x] * math.exp(log_z[40])) for x in range(n + 1)]
        assert built == [n]
        mine = kernel._replay(1)
        theirs = []
        worker = threading.Thread(target=lambda: theirs.append(kernel._replay(3).copy()))
        worker.start()
        worker.join()
        assert built == [n, n]
        assert mine.tobytes() == rows[32:65].tobytes()
        assert theirs[0].tobytes() == rows[96:129].tobytes()

    def test_digests(self):
        # the kernel's runs, each replayed from its stored start row
        kernel = rk.SurvivalKernel(160, rk.ring_time_scale(160, 1.0))
        assert _sha256(_kernel_rows(kernel)) == KILLED_WALK_SHA256["kernel_table"]
        assert _sha256(kernel._log_z) == KILLED_WALK_SHA256["kernel_log_z"]
        assert _sha256(rk.h_dp(1000, 500, 250000)) == KILLED_WALK_SHA256["h_dp"]
        delta = math.ceil(config.cond_threshold(240))
        exact, _, _ = rk.no_hit_prob_exact(120, 2 * delta, delta, 1)
        assert _sha256(exact) == KILLED_WALK_SHA256["no_hit"]


def _unit(y):
    """The weight of the site y alone, for rk._killed_sum."""
    return lambda z: (z == y).astype(float)


class TestKilledRow:
    """The killed walk's last row summed against weights by meeting in the
    middle (rk._killed_sum), against exact rationals, the spectral sum and
    the one-step loop."""

    #: odd and even block counts, and the first rescale of both rows after
    #: a run of 30 two-row blocks (1920 steps, 1952 with the point mass's
    #: extra block) and the blocks next to it, with even and odd short last
    #: blocks
    STEPS = (0, 1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 927, 959, 960, 961, 991,
             992, 993, 1000, 1919, 1920, 1921, 1952, 1984, 1985, 2000)

    #: one fixed positive-integer weight a site, for the sites 0..41
    WEIGHTS = np.random.default_rng(37).integers(1, 1000, 42)

    @pytest.mark.parametrize("n,x", [(2, 1), (3, 1), (3, 2), (12, 5), (12, 6), (41, 20),
                                     (41, 21), (41, 1)])
    def test_vs_exact_rationals(self, n, x):
        # the exact law is Fraction(c, 2**steps) for the integer counts c of
        # the killed paths from x, stepped as sums of integers; the sum
        # against the weight 1, each unit weight and one integer weight
        counts = [int(y == x) for y in range(n + 1)]
        weights = self.WEIGHTS[:n + 1]
        for steps in range(max(self.STEPS) + 1):
            if steps in self.STEPS:
                def exact(w):
                    return float(Fraction(sum(c * int(v) for c, v in zip(counts, w)),
                                          1 << steps))

                def killed_sum(weight):
                    return math.ldexp(*rk._killed_sum(n, x, steps, weight))

                assert rk.h_dp(n, x, steps) == pytest.approx(
                    exact([1] * (n + 1)), rel=1e-13, abs=0)
                assert killed_sum(np.ones_like) == rk.h_dp(n, x, steps)
                for y in range(n + 1):
                    assert killed_sum(_unit(y)) == pytest.approx(
                        float(Fraction(counts[y], 1 << steps)), rel=1e-13, abs=0)
                assert killed_sum(lambda z: weights[z].astype(float)) == pytest.approx(
                    exact(weights), rel=1e-13, abs=0)
            counts = [0] + [counts[y - 1] + counts[y + 1] for y in range(1, n)] + [0]

    def test_weight_reads_the_ends_in_reach(self):
        # one call, on the sites of the end's parity inside the segment
        # that the walk can reach
        for n, x, steps in ((41, 20, 5), (41, 20, 100), (12, 5, 40), (2, 1, 1), (200, 100, 97)):
            seen = []
            rk._killed_sum(n, x, steps, lambda z: seen.append(z.copy()) or np.ones(len(z)))
            (z,) = seen
            reach = np.arange(max(1, x - steps), min(n - 1, x + steps) + 1)
            assert z.tolist() == reach[(reach - x - steps) % 2 == 0].tolist()

    def test_all_dead(self):
        # n = 2, and the part of one live site between two killed sites:
        # the walk dies at step 1 and every later sum is zero
        for steps in (1, 2, 31, 32, 33, 70, 961, 1000):
            assert rk._killed_sum(2, 1, steps, np.ones_like)[0] == 0.0
            assert rk.h_dp(2, 1, steps) == 0.0
            w, log_mass = _propagate_killed(10, 4, steps, (3, 5))
            assert not w.any() and log_mass == -math.inf

    def test_n3_halves_every_step(self):
        # at n = 3 the walk from 1 keeps one path of 2**-t, on 1 or 2 by t's
        # parity: the sum against the weight 1 is one power of two, exactly
        # 2**-t
        for t in (5000, 5001):
            s, e = rk._killed_sum(3, 1, t, np.ones_like)
            mant, exp = math.frexp(s)
            assert mant == 0.5 and exp - 1 + e == -t

    def test_crop_is_the_walk_on_its_reach(self):
        # 64 steps from 10,000 reach 9,936..10,064, so the walk on 20,001
        # sites runs on 9,935..10,065: h_dp(130, 65, 64)'s walk, bit for bit
        assert rk.h_dp(20000, 10000, 64) == rk.h_dp(130, 65, 64)
        # and a cut walk with blocks on both sides of the middle is the
        # exact law of the uncut one
        n, x = 200, 100
        counts = [int(y == x) for y in range(n + 1)]
        for steps in range(98):
            if steps in (33, 64, 65, 96, 97):
                for y in range(x - steps, x + steps + 1, 2):
                    assert math.ldexp(*rk._killed_sum(n, x, steps, _unit(y))) == \
                        pytest.approx(float(Fraction(counts[y], 1 << steps)), rel=1e-13, abs=0)
            counts = [0] + [counts[y - 1] + counts[y + 1] for y in range(1, n)] + [0]

    @staticmethod
    def traced_peak(*args):
        tracemalloc.start()
        try:
            rk.h_dp(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_linear(self):
        # the band's closed form (its counts, with end sites and masks on
        # the rows by 0 and n only: about 0.6 kB a row while built at n =
        # 1000), its 48 x 16 matrices (48 doubles a row) and two buffers of
        # two rows: about 1 kB a row at n = 1000, where one rows x rows
        # array would be 4 kB a row
        rows = 1000 // 2 + 1
        assert self.traced_peak(1000, 500, 250000) <= 1200 * rows
        # 64 steps reach 65 sites either way: the walk on 20,001 sites
        # holds what it holds on 131
        assert self.traced_peak(20000, 10000, 64) <= 1.1 * self.traced_peak(130, 65, 64)

    def test_digested_values_vs_references(self):
        # the digested h_dp against a 40-digit spectral sum, and the
        # digested no-hit first leg against the one-step loop's
        assert abs(rk.h_dp(1000, 500, 250000) / _spectral_h_mpmath(1000, 500, 250000)
                   - 1) <= 1e-13
        delta = math.ceil(config.cond_threshold(240))
        v = np.zeros(241)
        v[120] = 1.0
        ref = _leg_prob(240, 120, 2 * delta, delta, *_killed_steps_last(v, delta, (1,)))
        exact, _, _ = rk.no_hit_prob_exact(120, 2 * delta, delta, 1)
        assert abs(exact / ref - 1) <= 1e-13


class TestFirstLegCut:
    """_first_leg_prob walks only the part of the segment that its killed
    site cuts off around x0, with one call of the killed sum; that sum and
    the probability are within 1e-13 of the one-step loop's on the full row
    with the killed site, and at desk sizes of exact rationals."""

    @staticmethod
    def first_leg(monkeypatch, n, x0, t, delta, kill):
        """(the sites and weights of _first_leg_prob's one call of the killed
        sum, its sum, the probability); the call must walk the part of x0."""
        walk, calls = rk._killed_sum, []

        def spy(m, x, steps, weight):
            seen = []

            def recorded(z):
                seen.append((z.copy(), weight(z)))
                return seen[-1][1]

            calls.append(((m, x, steps), seen, walk(m, x, steps, recorded)))
            return calls[-1][2]

        monkeypatch.setattr(rk, "_killed_sum", spy)
        prob = rk._first_leg_prob(n, x0, t, delta, kill)
        monkeypatch.undo()
        ((args, [(z, w)], (s, e)),) = calls
        lo, hi = _start_part(n, x0, (kill,))
        assert args == (hi - lo, x0 - lo, delta)
        return lo + z, w, math.ldexp(s, e), prob

    # check 10's no-hit leg (kill left of x0) and check 11's mid-tail legs
    # (kill right of x0)
    CASES = [(60, 60, 1), (40, 10, 40), (40, 20, 40), (40, 30, 40)]

    @pytest.mark.parametrize("n_half,x0,kill", CASES)
    def test_matches_full_row_loop(self, monkeypatch, n_half, x0, kill):
        n = 2 * n_half
        delta = math.ceil(config.cond_threshold(n))
        t = 2 * delta
        sites, w, total, prob = self.first_leg(monkeypatch, n, x0, t, delta, kill)
        v = np.zeros(n + 1)
        v[x0] = 1.0
        ref_row, ref_z = _killed_steps_last(v, delta, (kill,))
        assert set(np.flatnonzero(ref_row)) <= set(sites.tolist())
        assert total == pytest.approx(float(ref_row[sites] @ w) * math.exp(ref_z),
                                      rel=1e-13, abs=0)
        assert prob == pytest.approx(_leg_prob(n, x0, t, delta, ref_row, ref_z),
                                     rel=1e-13, abs=0)
        public = (rk.no_hit_prob_exact(n_half, t, delta, kill)[0] if x0 > kill
                  else rk.mid_tail_check(n_half, t, delta, x0)[0])
        assert public == prob

    @pytest.mark.parametrize("n,x0,kill,delta", [(24, 12, 1, 70), (24, 6, 12, 70),
                                                 (16, 8, 3, 41), (40, 20, 1, 97)])
    def test_matches_fraction_oracle(self, monkeypatch, n, x0, kill, delta):
        t = 2 * delta
        sites, w, total, prob = self.first_leg(monkeypatch, n, x0, t, delta, kill)
        exact = _exact_killed_steps([Fraction(int(y == x0)) for y in range(n + 1)],
                                    delta, (kill,))[-1]
        assert not any(exact[y] for y in set(range(n + 1)) - set(sites.tolist()))
        assert total == pytest.approx(
            float(sum(exact[y] * Fraction(float(wy)) for y, wy in zip(sites, w))),
            rel=1e-13, abs=0)
        ref = np.array([float(p) for p in exact])
        assert prob == pytest.approx(_leg_prob(n, x0, t, delta, ref, 0.0),
                                     rel=1e-13, abs=0)

    def test_one_site_part_gives_zero(self, monkeypatch):
        # x0 = 1 with the site 2 killed: the part is [0, 2], dead at step 1
        for delta in (1, 2, 33):
            _, _, total, prob = self.first_leg(monkeypatch, 40, 1, 500, delta, 2)
            assert total == 0.0
            assert prob == 0.0


def _full_table(n, t):
    """Every row 0..t of the recursion, as SurvivalKernel scales them."""
    v = np.ones(n + 1)
    v[0] = v[n] = 0.0
    return _walk_rows(v, t)


class TestKernelMemoryGuard:
    def test_budget_covers_both_tables(self, monkeypatch):
        # n = 10 settles at s* = 77: the kernel's rows are 0..78, and it
        # keeps the start rows of their 3 runs, the rows 77 and 78 and the
        # log scales of all 79, (3 + 2)(10 + 1) + 79 doubles; the step table
        # is (100 + 1)(10 + 1) doubles on top of them and is checked only
        # when it is built
        n, t = 10, 100
        kernel_rows = 8 * (5 * 11 + 79)
        steps = kernel_rows + 8 * 101 * 11
        monkeypatch.setattr(rk, "KERNEL_BYTES_BUDGET", kernel_rows)
        kernel = rk.SurvivalKernel(n, t)
        with pytest.raises(MemoryError, match="step tables for n=10"):
            kernel._step_up_table()
        monkeypatch.setattr(rk, "KERNEL_BYTES_BUDGET", steps)
        assert kernel._step_up_table().shape == (t + 1, n + 1)
        monkeypatch.setattr(rk, "KERNEL_BYTES_BUDGET", kernel_rows - 1)
        with pytest.raises(MemoryError, match="h_spectral"):
            rk.SurvivalKernel(n, t)

    @staticmethod
    def _step_up_reference(table, log_z):
        # out-of-place form of the same formula, with its temporaries
        t, n = table.shape[0] - 1, table.shape[1] - 1
        p = np.zeros((t + 1, n + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            # row scales are exact powers of two, 2**e with e = log_z / ln 2
            e = np.where(np.isfinite(log_z), np.rint(log_z / math.log(2)), 0)
            ratio = np.ldexp(1.0, (e[:t] - e[1:]).astype(int))
            p[1:, 1:n] = table[:t, 2:] * ratio[:, None] / (2.0 * table[1:, 1:n])
        return np.nan_to_num(p, nan=0.0, posinf=0.0)

    def test_step_table_in_place_matches_formula(self):
        # bit for bit on the stored rows 0..R; past R, the rows of the full
        # recursion within the tolerance of the settled check
        for n, t in ((2, 5), (3, 7), (4, 2), (6, 30), (9, 50), (40, 3242),
                     (41, 5000), (48, 5602)):
            kernel = rk.SurvivalKernel(n, t)
            p_up = kernel._step_up_table()
            r = len(kernel._log_z) - 1
            assert p_up.shape == (t + 1, n + 1)
            assert np.array_equal(
                p_up[:r + 1], self._step_up_reference(_kernel_rows(kernel), kernel._log_z))
            full = self._step_up_reference(*_full_table(n, t))
            assert np.max(np.abs(p_up[r + 1:] - full[r + 1:]), initial=0.0) \
                <= n * n * np.finfo(float).eps

    def test_peak_memory_within_guard_count(self):
        # the guard counts the stored rows, the log scales and the step
        # table; the build and the table's replay add one run buffer
        n = 80
        t = rk.ring_time_scale(n, 1.0)
        rows = rk._settled_steps(n) + 2
        runs = -(-(rows - 1) // rk._RESCALE_EVERY)
        need = 8 * ((runs + 2) * (n + 1) + rows + (t + 1) * (n + 1))
        tracemalloc.start()
        try:
            rk.SurvivalKernel(n, t)._step_up_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * need

    @staticmethod
    def _walk_peak(kernel, M, visit_site, stay_in):
        t = kernel.t_max
        tracemalloc.start()
        try:
            rk._ring_paths_batch(kernel, kernel.n // 2, t, M, RngState(0).generator(),
                                 visit_site, stay_in)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    @staticmethod
    def _layout_bytes(kernel, M, visit_site, stay_in):
        """(bytes the walk may hold at once, its largest table's cdf and
        guide): the killed-law powers, one law, one search table with its
        guide and coordinates, what the table's build holds besides (the
        gathered cells, at most its cdf; the law's positive-mass mask; one
        slice of slots, a float, an integer and a count array of at most
        _SLOT_CELLS cells) and 64 bytes a walker. The killed block's
        recursion, before any law, holds its mass and step buffer, each at
        most the block's law here, and the law it returns."""
        t, n = kernel.t_max, kernel.n
        yields = list(rk._block_laws(kernel, n // 2, t, visit_site, stay_in))
        top = yields[0][0] // rk._BLOCK
        one = rk._killed_block(n, rk._BLOCK, 0, visit_site, stay_in)
        powers = sum(_killed_power(n, 1 << j, 0, visit_site, stay_in).nbytes
                     for j in range(top.bit_length()))
        held = 0
        for _, law, _ in yields:
            table = rk._search_table(law)
            cdf, guide, k = table[:3]
            slots = 3 * 8 * min(cw._SLOT_CELLS, len(law) * k)
            held = max(held, law.nbytes + sum(np.asarray(p).nbytes for p in table)
                       + cdf.nbytes + law.size + slots)
        assert 3 * one.nbytes <= powers + held
        return powers + held + 64 * M, cdf.nbytes + guide.nbytes

    def test_walk_peak_memory_is_its_layout(self):
        # one walk allocates neither the (t + 1)(n + 1) step table (16.8 MB
        # here) nor any O(n s*) copy of the kernel rows: it holds its
        # killed-law powers, one law, one search table and what its build
        # holds, and 58 bytes per walker; below the batch budget, one block
        # of up-step rows and its padded copy, and 64 bytes a walker that
        # bounded the walk of one law per block
        n, M = 80, 16
        t = rk.ring_time_scale(n, 1.0)
        kernel = rk.SurvivalKernel(n, t)
        bound, table = self._layout_bytes(kernel, M, 2, (2, n - 1))
        peak = self._walk_peak(kernel, M, 2, (2, n - 1))
        assert table <= peak <= bound
        assert bound <= 8 * rk._BATCH_CELLS + 2 * 8 * rk._BLOCK * (n + 1 + rk._BLOCK) + 64 * M
        assert peak < 8 * len(kernel._log_z) * (n + 1)  # the kernel rows, all of them

    def test_stay_in_walk_peak_memory(self, monkeypatch):
        # the n = 80 vacant-set walk of the benchmark: ten killed-law powers
        # of 41 x 41 x 2 cells, one law and its search table, and O(M)
        def no_step_table(self):
            raise AssertionError("the walk must not build the step table")

        monkeypatch.setattr(rk.SurvivalKernel, "_step_up_table", no_step_table)
        n, M = 80, 4000
        t = rk.ring_time_scale(n, 1.0)
        kernel = rk.SurvivalKernel(n, t)
        law = next(rk._block_laws(kernel, n // 2, t, None, (2, n - 1)))[1]
        cdf, guide = rk._search_table(law)[:2]
        assert law.nbytes <= cdf.nbytes == guide.nbytes == 8 * (n // 2 + 1) * 128
        bound, table = self._layout_bytes(kernel, M, None, (2, n - 1))
        peak = self._walk_peak(kernel, M, None, (2, n - 1))
        assert table <= peak <= bound
        assert bound <= 8 * rk._BATCH_CELLS + 2 * 8 * rk._BLOCK * (n + 1 + rk._BLOCK) + 64 * M
        assert peak < 8 * len(kernel._log_z) * (n + 1)  # the kernel rows, all of them

    def test_kernel_holds_its_run_starts(self):
        # at the benchmark's n = 160 the kernel's rows 0..R, R = s* + 1 =
        # 23,807, take 30.7 MB; the kernel keeps the start rows of their
        # runs of 32 steps, two more rows and the log scales, about 1.15 MB,
        # and its build holds one run buffer besides: 1/16 of the rows bounds
        # both
        n = 160
        t = rk.ring_time_scale(n, 1.0)
        tracemalloc.start()
        try:
            kernel = rk.SurvivalKernel(n, t)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = 8 * len(kernel._log_z) * (n + 1)
        assert rows > 30e6
        assert held <= peak <= rows / 16
        stored = sum(v.nbytes for v in vars(kernel).values() if isinstance(v, np.ndarray))
        assert stored <= held


def _settled_reference(n):
    """s* from the spectrum rather than from the case analysis.

    The all-ones start excites the odd modes k, eigenvalue cos(pi k/n);
    lam2 is the largest |eigenvalue| below cos(pi/n), and without one s* = 0.
    """
    lam = np.abs(np.cos(np.pi * np.arange(1, n, 2) / n))
    lam1 = math.cos(math.pi / n)
    below = lam[lam < lam1 * (1 - 1e-12)]
    if below.size == 0:
        return 0
    return math.ceil(53 * math.log(2) / math.log(lam1 / below.max()))


class TestKernelCut:
    """SurvivalKernel stores rows 0..R, R = min(t_max, s* + 1)."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 41, 81])
    def test_cut_rows(self, n):
        s_star = _settled_reference(n)
        assert rk._settled_steps(n) == s_star
        for t in (0, 1, s_star, s_star + 1, s_star + 2, 3 * s_star + 5):
            kernel = rk.SurvivalKernel(n, t)
            rows = min(t, s_star + 1) + 1
            assert _kernel_rows(kernel).shape == (rows, n + 1)
            assert kernel._log_z.shape == (rows,)
            # a start row a run of 32 steps, and the last two rows
            assert kernel._starts.shape == (max(1, -(-(rows - 1) // 32)), n + 1)
            assert kernel._last.shape == (min(rows, 2), n + 1)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 41, 81])
    def test_rows_past_cut_keep_their_parity(self, n):
        # for even n the slowest modes are +-cos(pi/n), so h(., s) alternates
        # with the parity of s: h at s and s + 1 past R each read their row
        r = rk._settled_steps(n) + 1
        t = r + 41
        kernel = rk.SurvivalKernel(n, t)
        table, log_z = _full_table(n, t)
        eps = np.finfo(float).eps
        for s in (r + 1, r + 2, r + 3, t - 1, t):
            for x in range(n + 1):
                expected = table[s, x] * math.exp(log_z[s])
                assert kernel.h(x, s) == pytest.approx(
                    expected, rel=(n * n + s) * eps, abs=0)

    def test_unsettled_row_raises(self, monkeypatch):
        # cut before s*, row R still carries mode n - 2
        monkeypatch.setattr(rk, "_settled_steps", lambda n: 40)
        with pytest.raises(RuntimeError, match="n=41.*Doob step"):
            rk.SurvivalKernel(41, 5000)

    def test_ring_scale_rows_and_values(self):
        n = 160
        t = rk.ring_time_scale(n, 1.0)
        kernel = rk.SurvivalKernel(n, t)
        assert len(kernel._log_z) <= rk._settled_steps(n) + 2 < t // 8
        xs = np.arange(1, n)
        for s in (0, t // 3, t - 1, t):
            h = np.array([kernel.h(int(x), s) for x in xs])
            log_abs, sign = rk.h_spectral_log(n, xs, s)
            assert np.all(np.abs(sign * np.exp(log_abs) / h - 1) <= 1e-9)

