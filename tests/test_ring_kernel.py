import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ri1d import config
from ri1d import interlacements as il
from ri1d import ring_kernel as rk
from ri1d.mc import tv_distance
from ri1d.rngs import RngState


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
                dp = kernel._table[t, 1:n] * math.exp(kernel._log_z[t])
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
        _, log_dp = rk._propagate_killed(6, 3, 10**4)
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
        for s in range(1, 51):
            for x in range(1, 9):
                up = p_up[s, x]
                down = p_up[s, 9 - x]
                assert up == pytest.approx(1 - down, abs=1e-10)
                # down-step probability via the one-step identity
                ratio = math.exp(kernel._log_z[s - 1] - kernel._log_z[s])
                dn = kernel._table[s - 1, x - 1] * ratio / (2 * kernel._table[s, x])
                assert up + dn == pytest.approx(1.0, abs=1e-10)

    def test_sample_path_determinism_and_support(self):
        cfg = rk.RingConfig(6, 30, 3)
        a = rk.sample_ring_path(cfg, RngState(5, 1))
        b = rk.sample_ring_path(cfg, RngState(5, 1))
        assert a == b
        assert a.n_steps == 30
        assert all(0 < p < 6 for p in a.positions)

    def test_sample_path_matches_scalar_walk(self):
        # reference: one uniform per step against h(x+1, s-1) / (2 h(x, s))
        for n, t, x0 in ((6, 30, 3), (20, 500, 7)):
            kernel = rk.SurvivalKernel(n, t)
            for seed in range(3):
                gen = RngState(seed, 1).generator()
                pos = [x0]
                for s in range(t, 0, -1):
                    x = pos[-1]
                    up = kernel.h(x + 1, s - 1) / (2 * kernel.h(x, s))
                    pos.append(x + 1 if gen.random() < up else x - 1)
                path = rk.sample_ring_path(rk.RingConfig(n, t, x0),
                                           RngState(seed, 1))
                assert list(path.positions) == pos

    def test_batch_steps_match_scalar_walks(self):
        # reference: M walkers draw one uniform each per step, in walker order
        n, t, x0, M = 12, 200, 5, 7
        kernel = rk.SurvivalKernel(n, t)
        gen = RngState(4, 2).generator()
        ref = [x0] * M
        expected = []
        for s in range(t, 0, -1):
            for i in range(M):
                x = ref[i]
                up = kernel.h(x + 1, s - 1) / (2 * kernel.h(x, s))
                ref[i] = x + 1 if gen.random() < up else x - 1
            expected.append(list(ref))
        steps = rk._ring_steps(kernel, x0, t, M, RngState(4, 2).generator())
        assert [pos.tolist() for pos in steps] == expected

    def test_horizon_guard(self):
        kernel = rk.SurvivalKernel(6, 10)
        with pytest.raises(ValueError):
            next(rk._ring_steps(kernel, 3, 20, 1, RngState(0).generator()))

    def test_impossible_conditioning(self):
        with pytest.raises(ValueError):
            rk.sample_ring_path(rk.RingConfig(2, 1, 1), RngState(0))

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
        with pytest.raises(RuntimeError, match="n=10, t=20, x0=5"):
            rk.vacant_prob_ring_exact(10, 20, 5, 0, 1)
        with pytest.raises(RuntimeError, match="n=16, t=40, x0=8"):
            rk.no_hit_prob_exact(8, 40, 20, 1)

    def test_exact_zero_stays_zero(self, monkeypatch):
        # sign 0 in the numerator h_9(4, 20) encodes an exact zero
        monkeypatch.setattr(rk, "h_spectral_log",
                            lambda n, x, t: (0.0, 0.0 if n == 9 else 1.0))
        assert rk.vacant_prob_ring_exact(10, 20, 5, 0, 1) == 0.0

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
    w, log_mass = rk._propagate_killed(n, x, delta)
    w = w.copy()
    w[y + 1:] = 0.0
    total = w.sum()
    w /= total
    return rk._reweighted_prob(n, x, t, delta, w, log_mass + math.log(total)), asym


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
                w, log_mass = rk._propagate_killed(n, start, steps, (k,))
                mass = sum(exact[steps])
                assert log_mass == pytest.approx(
                    math.log(mass.numerator) - math.log(mass.denominator),
                    abs=1e-13)
                ref = [float(p / mass) for p in exact[steps]]
                np.testing.assert_allclose(w, ref, rtol=1e-13, atol=0)

    def test_killed_site_start(self):
        with pytest.raises(ValueError):
            rk._propagate_killed(10, 4, 5, (4,))
        with pytest.raises(ValueError):
            rk._propagate_killed(10, 10, 5)

    def test_pi4_closed_form(self):
        # sin(pi x/n) is an eigenvector of the killed walk with eigenvalue
        # cos(pi/n), so the value is sin(pi a/n) cos^delta(pi/n) / h_n(a, delta)
        for n in (20, 60, 200):
            delta = math.ceil(config.cond_threshold(n))
            for a in (1, n // 3):
                val, _ = rk.verify_pi4(n, delta, a)
                log_h, _ = rk.h_spectral_log(n, a, delta)
                ref = math.exp(math.log(math.sin(math.pi * a / n))
                               + delta * math.log(math.cos(math.pi / n))
                               - float(log_h))
                assert abs(val / ref - 1) <= 1e-12

    def test_surviving_log_mass_vs_spectral(self):
        n = 200
        delta = math.ceil(config.cond_threshold(n))
        for start in (1, 100):
            _, log_mass = rk._propagate_killed(n, start, delta)
            assert abs(log_mass - float(rk.h_spectral_log(n, start, delta)[0])) <= 1e-9
        # an extra killed site k confines the walk from start < k to (0, k)
        _, log_mass = rk._propagate_killed(n, 60, delta, (120,))
        assert abs(log_mass - float(rk.h_spectral_log(120, 60, delta)[0])) <= 1e-9

    # the engine rescales at step 1, every 32 steps after it and at the last
    # step; yields between rescalings are unnormalized sums
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
                w, log_mass = rk._propagate_killed(n, start, steps, (k,))
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
                w, log_mass = rk._propagate_killed(length, start, steps, kill)
                assert log_mass == -math.inf
                assert not w.any()
            assert rk.h_dp(2, 1, steps) == 0.0
        kernel = rk.SurvivalKernel(2, 40)
        assert np.all(kernel._log_z[1:] == -math.inf)
        assert not kernel._table[1:].any()

    def test_scale_never_overflows(self):
        # at n = 3 the mass from site 1 halves every step: log mass -t ln 2
        t = 5000
        w, log_mass = rk._propagate_killed(3, 1, t)
        assert log_mass == pytest.approx(-t * math.log(2), rel=1e-12)
        assert w.tolist() == [0.0, float(t % 2 == 0), float(t % 2 == 1), 0.0]
        # at n = 64 the unhalved sums grow like (2 cos(pi/64))^t and would
        # pass the double range after about 1030 steps without rescaling
        assert rk.h_dp(64, 32, t) == pytest.approx(rk.h_spectral(64, 32, t),
                                                   rel=1e-11)
        kernel = rk.SurvivalKernel(64, t)
        assert np.all(np.isfinite(kernel._table))
        assert kernel._table.max() < 2.0**32

    def test_results_independent_of_heap_contents(self):
        # freed blocks of the engine's buffer sizes, filled with NaN or 1e300,
        # must not reach any result
        def run():
            kernel = rk.SurvivalKernel(40, 300)
            w, log_mass = rk._propagate_killed(30, 4, 200, (11,))
            rows = [kernel._table[s].copy() for s in (1, 33, 300)]
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


class TestKernelMemoryGuard:
    def test_budget_covers_both_tables(self, monkeypatch):
        n, t = 10, 100
        need = 8 * (t + 1) * (2 * (n + 1) + 1)
        monkeypatch.setattr(rk, "KERNEL_BYTES_BUDGET", need)
        rk.SurvivalKernel(n, t)
        monkeypatch.setattr(rk, "KERNEL_BYTES_BUDGET", need - 1)
        with pytest.raises(MemoryError, match="h_spectral"):
            rk.SurvivalKernel(n, t)

    @staticmethod
    def _step_up_reference(kernel):
        # out-of-place form of the same formula, with its temporaries
        n, t = kernel.n, kernel.t_max
        p = np.zeros((t + 1, n + 1))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.exp(kernel._log_z[:t] - kernel._log_z[1:])
            p[1:, 1:n] = (kernel._table[:t, 2:] * ratio[:, None]
                          / (2.0 * kernel._table[1:, 1:n]))
        return np.nan_to_num(p, nan=0.0, posinf=0.0)

    def test_step_table_in_place_matches_formula(self):
        for n, t in ((2, 5), (3, 7), (4, 2), (9, 50), (40, 3242), (48, 5602)):
            kernel = rk.SurvivalKernel(n, t)
            assert np.array_equal(kernel._step_up_table(),
                                  self._step_up_reference(kernel))

    def test_peak_memory_within_guard_count(self):
        # the guard counts the kernel table, its log scale and the step table
        n = 80
        t = rk.ring_time_scale(n, 1.0)
        need = 8 * (t + 1) * (2 * (n + 1) + 1)
        tracemalloc.start()
        try:
            rk.SurvivalKernel(n, t)._step_up_table()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * need
