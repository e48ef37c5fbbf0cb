import math

import numpy as np
import pytest

from ri1d import interlacements as il
from ri1d.capacity import IntervalSet, capacity_hat
from ri1d.mc import tv_distance
from ri1d.rngs import RngState


class TestLevel:
    def test_positive(self):
        with pytest.raises(ValueError):
            il.local_time_mean(1, 0.0)
        with pytest.raises(ValueError):
            il.local_time_mean(1, -1.0)
        assert il.local_time_mean(1, 0.5) == 0.5


class TestVacantExact:
    def test_values(self):
        assert il.vacant_prob_exact(IntervalSet(0, 0), 3.0) == 1.0
        assert il.vacant_prob_exact(IntervalSet(0, 2), 1.0) == \
            pytest.approx(math.exp(-1), rel=1e-15)
        assert il.vacant_prob_exact(IntervalSet(-2, 3), 2.0) == \
            pytest.approx(math.exp(-5), rel=1e-15)

    def test_monotone(self):
        alphas = (0.5, 1.0, 2.0, 4.0)
        vals = [il.vacant_prob_exact(IntervalSet(0, 2), a) for a in alphas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        diams = [IntervalSet(0, d) for d in (1, 2, 5, 9)]
        vals = [il.vacant_prob_exact(A, 1.0) for A in diams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_class_identity(self):
        # P[local time at x is 0] equals the vacant law of {0, x}
        for x in range(1, 9):
            for alpha in (0.3, 1.0, 2.5):
                law = il.local_time_pmf(x, alpha, s_max=0)
                assert law.pmf[0] == pytest.approx(
                    il.vacant_prob_exact(IntervalSet(0, x), alpha), rel=1e-14)


class TestTrajectoryCount:
    # window trajectories touching x are those hitting A = [0, x]
    def test_origin_always_zero(self):
        for s in range(5):
            _, _, hits = il._simulate_window_batch(
                2.0, 5, 20, RngState(s).generator(), track_site=0)
            assert not hits.any()

    def test_poisson_moments(self):
        _, _, draws = il._simulate_window_batch(
            1.0, 6, 2000, RngState(3).generator(), track_site=2)
        lam = capacity_hat(IntervalSet(0, 2))
        assert abs(draws.mean() - lam) <= 4 * math.sqrt(lam / 2000)
        p0 = float(np.mean(draws == 0))
        target = il.vacant_prob_exact(IntervalSet(0, 2), 1.0)
        assert abs(p0 - target) <= 4 * math.sqrt(target * (1 - target) / 2000)


class TestWindowSampler:
    def test_domain(self):
        with pytest.raises(ValueError):
            il.sample_window(1.0, 0, RngState(0))

    def test_determinism(self):
        a = il.sample_window(1.0, 6, RngState(9, 1))
        b = il.sample_window(1.0, 6, RngState(9, 1))
        assert a == b

    def test_origin_never_visited(self):
        for s in range(20):
            w = il.sample_window(2.0, 5, RngState(s))
            assert 0 not in w.visits

    def test_vacant_set_is_interval(self):
        # no visited site strictly between the vacant edges
        for s in range(50):
            w = il.sample_window(1.5, 6, RngState(100 + s))
            neg, pos = w.vacant_interval
            for site in w.visits:
                assert site <= neg or site >= pos

    def test_small_alpha_limit(self):
        counts, n_traj, _ = il._simulate_window_batch(
            1e-6, 8, 10**4, RngState(1).generator())
        empty = np.mean((n_traj == 0) & (counts.sum(axis=1) == 0))
        assert empty >= 1 - 1e-3

    def test_vacant_and_mean_visits(self):
        L, M = 8, 10**5
        counts, _, hits = il._simulate_window_batch(
            1.0, L, M, RngState(7).generator(), track_site=3)
        vac = float(np.mean((counts[:, L + 1] == 0) & (counts[:, L + 2] == 0)))
        target = math.exp(-1)
        assert abs(vac - target) <= 4 * math.sqrt(target * (1 - target) / M)
        assert abs(counts[:, L + 3].mean() / 9.0 - 1) <= 0.01

    def test_thinning_consistency(self):
        # trajectories hitting x form a Poisson(alpha x / 2) thinning
        L, M, x = 8, 10**5, 3
        counts, _, hits = il._simulate_window_batch(
            1.0, L, M, RngState(11).generator(), track_site=x)
        lam = x / 2
        assert abs(hits.mean() - lam) <= 4 * math.sqrt(lam / M)
        p0 = float(np.mean(hits == 0))
        t0 = math.exp(-lam)
        assert abs(p0 - t0) <= 4 * math.sqrt(t0 * (1 - t0) / M)
        # and the window local time agrees in law with the direct sampler
        law = il.local_time_pmf(x, 1.0)
        emp = np.bincount(counts[:, L + x]) / M
        assert tv_distance(emp, law) <= 0.01


class TestLocalTimeSampler:
    def test_domain(self):
        with pytest.raises(ValueError):
            il.sample_local_times(0, 1.0, 1, RngState(0).generator())

    def test_zero_class(self):
        gen = RngState(2).generator()
        s = il.sample_local_times(2, 1.0, 10**6, gen)
        p0 = float(np.mean(s == 0))
        target = math.exp(-1)
        assert abs(p0 - target) <= 4 * math.sqrt(target * (1 - target) / 10**6)

    def test_moments(self):
        gen = RngState(2).generator()
        s = il.sample_local_times(5, 1.0, 10**6, gen)
        assert abs(s.mean() / 25 - 1) <= 0.005
        assert abs(s.var(ddof=1) / 475 - 1) <= 0.02


class TestPmf:
    def test_pmf_zero(self):
        law = il.local_time_pmf(2, 1.0)
        assert abs(law.pmf[0] - math.exp(-1)) <= 1e-12

    def test_mean_identity(self):
        for x, alpha in ((2, 1.0), (3, 1.0), (5, 0.5)):
            law = il.local_time_pmf(x, alpha)
            assert abs(law.mean() / il.local_time_mean(x, alpha) - 1) <= 1e-8
            assert abs(law.variance() / il.local_time_variance(x, alpha) - 1) <= 1e-7

    def test_truncation_flag(self):
        law = il.local_time_pmf(3, 1.0, s_max=5)
        assert law.truncation_warning and law.tail_mass > 1e-9
        full = il.local_time_pmf(3, 1.0)
        assert not full.truncation_warning and full.tail_mass <= 1e-9

    def test_sampler_cross_validation(self):
        law = il.local_time_pmf(3, 1.0)
        s = il.sample_local_times(3, 1.0, 10**6, RngState(4).generator())
        emp = np.bincount(s) / len(s)
        assert tv_distance(emp, law) <= 0.005


class TestCf:
    def test_at_zero(self):
        assert il.local_time_cf(3, 1.0, 0.0) == pytest.approx(1.0 + 0j, abs=1e-15)

    def test_modulus_bound(self):
        t = np.linspace(-math.pi, math.pi, 101)
        vals = il.local_time_cf(3, 1.0, t)
        assert np.all(np.abs(vals) <= 1 + 1e-12)

    def test_dft_of_pmf_matches_cf(self):
        law = il.local_time_pmf(3, 1.0)
        grid = 2 * math.pi * np.arange(64) / 64
        dft = np.array([np.sum(law.pmf * np.exp(1j * t * np.arange(len(law.pmf))))
                        for t in grid])
        cf = il.local_time_cf(3, 1.0, grid)
        assert np.max(np.abs(dft - cf)) <= 1e-8

    def test_moment_triangle_via_cf_derivatives(self):
        # central differences of the cf at 0 reproduce the closed-form moments
        x, alpha, h = 3, 1.0, 1e-4
        m1 = (il.local_time_cf(x, alpha, h) - il.local_time_cf(x, alpha, -h)) \
            / (2j * h)
        m2 = -(il.local_time_cf(x, alpha, h) - 2 + il.local_time_cf(x, alpha, -h)) \
            / h**2
        mean = il.local_time_mean(x, alpha)
        var = il.local_time_variance(x, alpha)
        assert abs(m1.real / mean - 1) <= 1e-6
        # the h^2 truncation error of the second difference is ~1.5e-6 here
        assert abs((m2.real - mean**2) / var - 1) <= 1e-5


class TestStandardize:
    def test_centering(self):
        assert il.standardize_local_time(25, 5, 1.0) == 0.0

    def test_clt_batch(self):
        s = il.sample_local_times(400, 1.0, 10**5, RngState(7).generator())
        z = il.standardize_local_time(s, 400, 1.0)
        assert abs(z.mean()) <= 0.02
        assert 0.97 <= z.var(ddof=1) <= 1.03
