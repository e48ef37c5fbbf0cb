import math
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtri

from ri1d import interlacements as il
from ri1d.mc import (CHUNK_SIZE, Experiment, Verdict, _moment_sums, default_workers,
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


def chunk_draws(exp, M, seed):
    """The M draws of run_replicates(exp, M, seed), concatenated by hand."""
    return np.concatenate([exp.sample(RngState(seed, j).generator(),
                                      min(CHUNK_SIZE, M - j * CHUNK_SIZE))
                           for j in range(-(-M // CHUNK_SIZE))])


def exact_moments(data):
    """(mean, variance with ddof 1) of integer draws, each correctly rounded."""
    M, s1 = len(data), sum(data.tolist())
    s2 = sum(v * v for v in data.tolist())
    return float(Fraction(s1, M)), float(Fraction(M * s2 - s1 * s1, M * (M - 1)))


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
        # more workers than cores, switching threads every microsecond,
        # count what one worker counts
        M = 12 * CHUNK_SIZE + 17
        a = run_replicates(poisson_exp(), M, seed=4, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = run_replicates(poisson_exp(), M, seed=4, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert a.mean == b.mean and a.variance == b.variance
        assert np.array_equal(a.pmf, b.pmf)
        assert np.array_equal(a.counts, b.counts) and a.counts.sum() == M

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_kept_sample_is_the_sorted_draws(self, workers):
        # the sample made from the counts is the chunks' draws, sorted, in
        # their dtype, element for element
        M = 2 * CHUNK_SIZE + 999
        for exp in (poisson_exp(), Experiment(
                "poisson-int32", lambda g, m: g.poisson(1.0, m).astype(np.int32))):
            s = run_replicates(exp, M, seed=9, workers=workers, keep_sample=True)
            data = np.sort(chunk_draws(exp, M, 9))
            assert s.sample.dtype == data.dtype
            assert s.sample.tobytes() == data.tobytes()

    def test_merge_matches_manual_partition(self):
        # concatenating the per-chunk draws by hand reproduces the summary:
        # the counts and pmf, the mean with numpy's bits, and the correctly
        # rounded variance
        M = 2 * CHUNK_SIZE + 999
        exp = poisson_exp()
        data = chunk_draws(exp, M, 9)
        s = run_replicates(exp, M, seed=9)
        assert s.counts.tolist() == np.bincount(data).tolist()
        assert s.pmf.tobytes() == (np.bincount(data) / M).tobytes()
        assert s.mean == float(data.mean())
        assert (s.mean, s.variance) == exact_moments(data)

    def test_variance_is_correctly_rounded(self):
        # at seed 1 numpy's two-pass var(ddof=1) of the same draws is an ulp
        # off the exact value; the harness gives the exact value
        M = 2 * CHUNK_SIZE + 999
        data = chunk_draws(poisson_exp(), M, 1)
        _, variance = exact_moments(data)
        numpy_var = float(data.var(ddof=1))
        assert numpy_var != variance
        assert abs(numpy_var - variance) == math.ulp(variance)
        assert run_replicates(poisson_exp(), M, seed=1).variance == variance

    @pytest.mark.parametrize("lam", [0.5, 3.0, 40.0])
    def test_moments_are_correctly_rounded(self, lam):
        M = CHUNK_SIZE + 4321
        exp = poisson_exp(lam)
        for seed in range(4):
            s = run_replicates(exp, M, seed=seed, workers=2)
            assert (s.mean, s.variance) == exact_moments(chunk_draws(exp, M, seed))
        one = run_replicates(exp, 1, seed=0)
        assert one.variance == 0.0 and one.counts.sum() == 1

    def test_moment_sums_never_overflow(self):
        # int64 where max**2 * M < 2**63, Python integers past it; both exact
        def exact(counts):
            return (sum(k * c for k, c in enumerate(counts.tolist())),
                    sum(k * k * c for k, c in enumerate(counts.tolist())))
        counts = np.zeros(1000, dtype=np.int64)
        M = (2**63 - 1) // 999**2  # the largest M of the int64 sums
        counts[999], counts[3] = M - 5, 5
        assert _moment_sums(counts, M) == exact(counts)
        counts[999], counts[3] = 2**44, 7
        got = _moment_sums(counts, 2**44 + 7)
        assert got == exact(counts) and got[1] > 2**63
        # over several slices of CHUNK_SIZE values, either way
        counts = np.zeros(3 * CHUNK_SIZE + 5, dtype=np.int64)
        counts[[0, CHUNK_SIZE - 1, CHUNK_SIZE, 2 * CHUNK_SIZE + 7, -1]] = [5, 1, 2, 3, 4]
        assert _moment_sums(counts, 15) == exact(counts)
        counts[-1] = 2**40
        assert _moment_sums(counts, 2**40 + 11) == exact(counts)

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
        # at most workers + 1 chunks in flight, and a quarter chunk for the
        # counts (1000 values) and the threads, besides one
        # array of M values when the sample is kept: no variance temporary,
        # and without the sample the same peak, within one chunk, at M = 1e6
        # and 4e6
        exp = Experiment("uniform", lambda g, m: g.integers(0, 1000, m))
        run_replicates(exp, 1000, seed=2, workers=workers)  # first-call costs
        chunk = 8 * CHUNK_SIZE
        peaks = []
        for M in (10**6, 4 * 10**6):
            s, peak = traced_peak(lambda: run_replicates(
                exp, M, seed=2, workers=workers, keep_sample=keep_sample))
            assert s.count == M and (s.sample is not None) == keep_sample
            assert len(s.counts) == 1000 and s.counts.sum() == M
            peaks.append(peak - (8 * M if keep_sample else 0))
            del s
        assert max(peaks) <= (workers + 1) * chunk + chunk // 4
        if not keep_sample:
            assert abs(peaks[1] - peaks[0]) <= chunk

    def test_bounded_chunks_in_flight(self):
        # while chunk 0 is slow to draw, two workers draw at most two chunks
        # past it, not the whole run: chunks wait to be counted in order
        done = []

        def sample(g, m):
            j = g.bit_generator.seed_seq.spawn_key[0]
            if j == 0:
                time.sleep(0.2)
            done.append(j)
            return np.zeros(m, dtype=np.int64)

        s = run_replicates(Experiment("zeros", sample), 20 * CHUNK_SIZE, seed=1,
                           workers=2)
        assert s.counts.tolist() == [20 * CHUNK_SIZE] and sorted(done) == list(range(20))
        assert done.index(0) <= 2

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

    @pytest.mark.parametrize("case", ["shuffled", "tied", "constant", "inf",
                                      "local times", "integers"])
    def test_counts_match_sample(self, case):
        # counts[i] copies of values[i] give the sample's bits: the distinct
        # values sorted, or shuffled with zero counts and split ties
        rng = np.random.default_rng(12)
        normal = rng.standard_normal(1000)
        sample = {
            "shuffled": normal,
            "tied": np.repeat(rng.standard_normal(40), 9),
            "constant": np.full(300, -0.25),
            "inf": np.concatenate([np.full(30, -np.inf), normal[:200],
                                   np.full(45, np.inf)]),
            "local times": local_time_z(20000),
            "integers": rng.integers(-3, 4, 500),
        }[case]
        want = ks_distance_to_normal(sample).hex()
        values, counts = np.unique(sample, return_counts=True)
        assert ks_distance_to_normal(values, counts).hex() == want
        # each value split in two entries, with a zero count beside them
        split = rng.integers(0, counts + 1)
        values = np.concatenate([values, values, [7.5]])
        counts = np.concatenate([split, counts - split, [0]])
        order = rng.permutation(len(values))
        before = values[order].copy(), counts[order].copy()
        assert ks_distance_to_normal(values[order], counts[order]).hex() == want
        assert np.array_equal(values[order], before[0])
        assert np.array_equal(counts[order], before[1])

    def test_counts_refused(self):
        z = np.linspace(-2, 2, 10)
        with pytest.raises(ValueError, match="at least 100"):
            ks_distance_to_normal(z, np.full(10, 9))
        with pytest.raises(ValueError, match="NaN"):
            ks_distance_to_normal(np.append(z, np.nan), np.full(11, 10))
        with pytest.raises(ValueError, match="nonnegative"):
            ks_distance_to_normal(z, np.append(np.full(9, 20), -1))
        with pytest.raises(ValueError, match="integers"):
            ks_distance_to_normal(z, np.full(10, 20.0))
        with pytest.raises(ValueError, match="shape"):
            ks_distance_to_normal(z, np.full(9, 20))
        # a NaN counted zero times is no point
        assert ks_distance_to_normal(np.append(z, np.nan), np.append(np.full(10, 10), 0)) \
            == ks_distance_to_normal(np.repeat(z, 10))

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
