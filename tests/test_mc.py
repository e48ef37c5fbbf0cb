import math

import numpy as np
import pytest
from scipy.special import ndtri

from ri1d.mc import (CHUNK_SIZE, Experiment, Verdict, ks_distance_to_normal,
                     run_replicates, tv_distance)


def poisson_exp(lam=1.0):
    return Experiment("poisson", lambda g, m: g.poisson(lam, m))


class TestRunReplicates:
    def test_determinism(self):
        a = run_replicates(poisson_exp(), 50000, seed=3)
        b = run_replicates(poisson_exp(), 50000, seed=3)
        assert a.mean == b.mean and a.variance == b.variance
        assert np.array_equal(a.pmf, b.pmf)

    def test_worker_independence(self):
        M = 3 * CHUNK_SIZE + 17
        a = run_replicates(poisson_exp(), M, seed=4, workers=1)
        b = run_replicates(poisson_exp(), M, seed=4, workers=8)
        assert a.mean == b.mean and a.variance == b.variance
        assert np.array_equal(a.pmf, b.pmf)

    def test_poisson_moments(self):
        M = 10**5
        s = run_replicates(poisson_exp(), M, seed=5)
        assert abs(s.mean - 1.0) <= 4 / math.sqrt(M)

    def test_pmf_normalized(self):
        s = run_replicates(poisson_exp(), 12345, seed=0)
        assert abs(s.pmf.sum() - 1.0) <= 1e-12

    def test_keep_sample_sorted(self):
        s = run_replicates(poisson_exp(), 1000, seed=0, keep_sample=True)
        assert np.all(np.diff(s.sample) >= 0)

    def test_merge_matches_manual_partition(self):
        # concatenating the per-chunk draws by hand reproduces the summary
        from ri1d.rngs import RngState
        M = 2 * CHUNK_SIZE + 999
        exp = poisson_exp()
        parts = []
        j = 0
        left = M
        while left > 0:
            m = min(CHUNK_SIZE, left)
            parts.append(exp.sample(RngState(9, j).generator(), m))
            j += 1
            left -= m
        data = np.concatenate(parts)
        s = run_replicates(exp, M, seed=9)
        assert s.mean == float(data.mean())
        assert s.variance == float(data.var(ddof=1))

    def test_integer_valued_rejects_fractions(self):
        frac = Experiment("frac", lambda g, m: np.full(m, 0.7))
        with pytest.raises(RuntimeError, match="non-integer"):
            run_replicates(frac, 100, seed=1)
        whole = run_replicates(Experiment("whole", lambda g, m: np.full(m, 2.0)),
                               100, seed=1)
        assert whole.pmf.tolist() == [0.0, 0.0, 1.0]

    def test_bad_m(self):
        with pytest.raises(ValueError):
            run_replicates(poisson_exp(), 0, seed=1)


class TestTvDistance:
    def test_identical(self):
        p = np.array([0.25, 0.5, 0.25])
        assert tv_distance(p, p) == 0.0

    def test_disjoint(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_padding(self):
        assert tv_distance(np.array([1.0]), np.array([0.5, 0.5])) == \
            pytest.approx(0.5)

    def test_tail_mass_counts(self):
        # a truncated reference missing 10% of its mass is at TV >= 0.05 from
        # any full distribution on the shared support
        emp = np.array([0.5, 0.5])
        ref = np.array([0.45, 0.45])  # 0.1 lives beyond the truncation
        assert tv_distance(emp, ref) == pytest.approx(0.1)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            d = tv_distance(p, q)
            assert 0.0 <= d <= 1.0
            assert tv_distance(p, q) == tv_distance(q, p)


class TestKs:
    def test_quantile_grid(self):
        m = 10**4
        z = ndtri((np.arange(1, m + 1) - 0.5) / m)
        assert ks_distance_to_normal(z) <= 1.0 / m

    def test_point_mass(self):
        assert ks_distance_to_normal(np.zeros(500)) == pytest.approx(0.5)

    def test_min_size(self):
        with pytest.raises(ValueError):
            ks_distance_to_normal(np.zeros(99))

    def test_normal_sample(self):
        z = np.random.default_rng(1).standard_normal(10**5)
        assert ks_distance_to_normal(z) <= 0.01


class TestVerdict:
    def test_pass_iff_leq(self):
        assert Verdict("v", 1.0, 1.0).passed
        assert not Verdict("v", 1.0 + 1e-12, 1.0).passed

    def test_margin(self):
        assert Verdict("v", 0.25, 1.0).margin == 0.75
        assert Verdict("v", 1.0, 1.0).margin == 0.0
        assert Verdict("v", 2.0, 1.5).margin == -0.5

    def test_line_format(self):
        line = Verdict("check", 0.5, 1.0, "ctx").line()
        assert line.startswith("PASS") and "check" in line and "ctx" in line
