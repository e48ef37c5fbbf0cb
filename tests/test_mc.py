import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

from ri1d import interlacements as il
from ri1d.mc import (CHUNK_SIZE, Experiment, Verdict, default_workers,
                     ks_distance_to_normal, run_replicates, tv_distance)
from ri1d.rngs import RngState


def poisson_exp(lam=1.0):
    return Experiment("poisson", lambda g, m: g.poisson(lam, m))


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def ks_all_points(sample) -> float:
    """The KS statistic over all m points: 0.5 erfc(-z/sqrt 2) at every
    sorted point against the grids 1/m..m/m and 0..(m-1)/m."""
    z = np.sort(np.asarray(sample, dtype=np.float64))
    m = len(z)
    phi = 0.5 * np.array([math.erfc(-v / math.sqrt(2.0)) for v in z.tolist()])
    upper = np.arange(1, m + 1) / m - phi
    lower = phi - np.arange(m) / m
    return float(max(upper.max(), lower.max()))


def local_time_z(M, seed=7, x=400):
    """M standardized local times at x, sorted: the sample of the CLT check."""
    sample = il.sample_local_times(x, 1.0, M, RngState(seed).generator())
    return np.sort(il.standardize_local_time(sample, x, 1.0))


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

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_raise(self, workers):
        # before any chunk is drawn, at one chunk or two
        def sample(g, m):
            raise AssertionError("no chunk may be drawn")
        for M in (10, CHUNK_SIZE + 10):
            with pytest.raises(ValueError, match=f"need workers >= 1, got {workers}"):
                run_replicates(Experiment("refused", sample), M, seed=1, workers=workers)

    @pytest.mark.parametrize("raw", ["0", "-2", "abc", "1.5", " "])
    def test_bad_worker_variable_raises(self, raw, monkeypatch):
        monkeypatch.setenv("RI1D_WORKERS", raw)
        with pytest.raises(ValueError, match="RI1D_WORKERS must be a positive integer"):
            default_workers()
        with pytest.raises(ValueError, match="RI1D_WORKERS"):
            run_replicates(poisson_exp(), 10, seed=1)

    def test_worker_variable(self, monkeypatch):
        monkeypatch.delenv("RI1D_WORKERS", raising=False)
        assert default_workers() == 1
        for raw, workers in (("", 1), ("1", 1), ("3", 3), (" 2 ", 2)):
            monkeypatch.setenv("RI1D_WORKERS", raw)
            assert default_workers() == workers

    def test_mixed_dtype_chunks_raise(self):
        # chunk 0 sets the dtype; a later chunk of another dtype is refused
        def sample(g, m):
            out = g.poisson(1.0, m)
            return out if m == CHUNK_SIZE else out.astype(np.int32)
        with pytest.raises(RuntimeError, match="dtype int32"):
            run_replicates(Experiment("mixed", sample), CHUNK_SIZE + 10, seed=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_float_draws_match_int64(self, workers):
        M = 2 * CHUNK_SIZE + 5
        ints = run_replicates(poisson_exp(3.0), M, seed=6, workers=workers,
                              keep_sample=True)
        floats = run_replicates(
            Experiment("poisson-float", lambda g, m: g.poisson(3.0, m).astype(float)),
            M, seed=6, workers=workers, keep_sample=True)
        assert floats.mean.hex() == ints.mean.hex()
        assert floats.variance.hex() == ints.variance.hex()
        assert floats.pmf.tobytes() == ints.pmf.tobytes()
        assert floats.sample.dtype == np.float64
        assert np.array_equal(floats.sample, ints.sample)

    @pytest.mark.parametrize("keep_sample", [False, True])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory(self, workers, keep_sample):
        # one array of M int64 values plus numpy's variance temporary of M
        # floats, and at most two chunks beside them
        M = 10**6
        exp = Experiment("uniform", lambda g, m: g.integers(0, 1000, m))
        s, peak = traced_peak(lambda: run_replicates(exp, M, seed=2, workers=workers,
                                                     keep_sample=keep_sample))
        assert peak <= 2 * 8 * M + 2 * 8 * CHUNK_SIZE
        assert s.count == M and (s.sample is not None) == keep_sample


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

    @pytest.mark.parametrize("case", ["sorted", "shuffled", "tied", "constant",
                                      "inf", "local times", "integers"])
    def test_matches_all_points(self, case):
        rng = np.random.default_rng(11)
        normal = rng.standard_normal(1000)
        sample = {
            "sorted": np.sort(normal),
            "shuffled": normal,
            "tied": rng.permutation(np.repeat(rng.standard_normal(40), 9)),
            "constant": np.full(300, -0.25),
            "inf": rng.permutation(np.concatenate([np.full(30, -np.inf), normal[:200],
                                                   np.full(45, np.inf)])),
            "local times": rng.permutation(local_time_z(20000)),
            "integers": rng.integers(-3, 4, 500),
        }[case]
        before = sample.copy()
        assert ks_distance_to_normal(sample).hex() == ks_all_points(sample).hex()
        assert np.array_equal(sample, before)

    def test_matches_all_points_property(self):
        hypothesis = pytest.importorskip("hypothesis", exc_type=ImportError)
        st = pytest.importorskip("hypothesis.strategies", exc_type=ImportError)
        # a small pool of values makes ties; infinities are legal points
        pool = [-np.inf, -2.5, -1e-300, -0.0, 0.0, 0.5, 1.0, 3.0, np.inf]
        values = st.one_of(st.sampled_from(pool),
                           st.floats(allow_nan=False, allow_infinity=True))

        @hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                             database=None)
        @hypothesis.given(st.lists(values, min_size=100, max_size=400))
        def check(points):
            sample = np.array(points)
            assert ks_distance_to_normal(sample).hex() == ks_all_points(sample).hex()

        check()

    @pytest.mark.parametrize("where", [0, 50, 499])
    def test_nan_raises(self, where):
        z = np.sort(np.random.default_rng(3).standard_normal(500))
        z[where] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ks_distance_to_normal(z)

    def test_infinities_are_points(self):
        # Phi(-inf) = 0 and Phi(inf) = 1 exactly: a sample of 30% -inf and
        # 70% +inf is 0.3 from the normal at every finite point
        z = np.concatenate([np.full(30, -np.inf), np.full(70, np.inf)])
        assert ks_distance_to_normal(z) == 0.7
        assert ks_distance_to_normal(z[::-1]) == 0.7

    def test_sorted_input_memory(self):
        # on sorted input KS holds one byte per point and arrays as long as
        # the distinct values (about 87,000 of 1e6 local times at x = 400),
        # less than one float64 copy of the input; it never writes its input
        z = local_time_z(10**6)
        z.flags.writeable = False
        value, peak = traced_peak(lambda: ks_distance_to_normal(z))
        assert peak < 8 * len(z)
        assert value == ks_distance_to_normal(np.random.default_rng(0).permutation(z))


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
