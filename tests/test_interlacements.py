import functools
import hashlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr

from ri1d import interlacements as il
from ri1d.capacity import IntervalSet
from ri1d.mc import tv_distance
from ri1d.rngs import RngState


def _window_walk(alpha, L, M, gen):
    """Reference window sampler: every trajectory simulated step by step.

    Same return shape as ``il._simulate_window_batch``. Each trajectory
    enters at -L or +L with probability 1/2 and steps up from x with
    probability (x+1)/(2x); an excursion past the window edge is one
    Bernoulli(L/(L+1)) return event.
    """
    counts = np.zeros((M, 2 * L + 1), dtype=np.int64)
    n_traj = gen.poisson(alpha * L, M)
    total = int(n_traj.sum())
    rep = np.repeat(np.arange(M, dtype=np.int64), n_traj)
    sign = np.where(gen.random(total) < 0.5, 1, -1).astype(np.int64)
    pos = np.full(total, L, dtype=np.int64)
    np.add.at(counts, (rep, L + sign * L), 1)  # entrance counts as a visit
    return_p = L / (L + 1)
    while pos.size:
        u = gen.random(pos.size)
        nxt = pos + np.where(u < (pos + 1) / (2 * pos), 1, -1)
        out = nxt == L + 1
        if out.any():
            back = gen.random(int(out.sum())) < return_p
            nxt[out] = np.where(back, L, -1)  # -1 marks a finished trajectory
        alive = nxt >= 1
        pos, rep, sign = nxt[alive], rep[alive], sign[alive]
        np.add.at(counts, (rep, L + sign * pos), 1)
    return counts, n_traj, None


def _local_times_geometric(x, alpha, M, gen):
    """Reference local-time sampler: Poisson(alpha*x/2) geometric batches."""
    n = gen.poisson(alpha * x / 2, M)
    g = gen.geometric(1 / (2 * x), int(n.sum()))
    return np.bincount(np.repeat(np.arange(M), n), weights=g,
                       minlength=M).astype(np.int64)


def _poisson_inversion(lam, u):
    """Reference Poisson(lam) counts of the uniforms u by inverse CDF: the
    first count whose running sum of exp(j log lam - lam - lgamma(j + 1)),
    summed in float64 to far past the mass, is above each uniform."""
    top = int(lam + 20 * math.sqrt(lam) + 40)
    pmf = [math.exp(j * math.log(lam) - lam - math.lgamma(j + 1)) for j in range(top)]
    return np.searchsorted(np.cumsum(pmf), u, side="right")


def _pmf(values):
    return np.bincount(values) / len(values)


def _tv_bound(law, M1, M2=None):
    """Twice the expected total variation between two independent empirical
    pmfs of ``law`` (or one empirical pmf and ``law`` when M2 is None),
    from the normal approximation E|Z| = sqrt(2/pi) sigma per atom.
    """
    p = law.pmf
    inv = 1 / M1 + (1 / M2 if M2 else 0.0)
    return math.sqrt(2 / math.pi) * float(np.sum(np.sqrt(p * (1 - p) * inv)))


def _cov_se(a, b):
    """Sample covariance of (a, b) and its standard error."""
    prod = (a - a.mean()) * (b - b.mean())
    return float(prod.sum()) / (len(a) - 1), float(prod.std(ddof=1)) / math.sqrt(len(a))


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
        counts, _, _ = il._simulate_window_batch(1.0, L, M, RngState(7).generator())
        vac = float(np.mean((counts[:, L + 1] == 0) & (counts[:, L + 2] == 0)))
        target = math.exp(-1)
        assert abs(vac - target) <= 4 * math.sqrt(target * (1 - target) / M)
        assert abs(counts[:, L + 3].mean() / 9.0 - 1) <= 0.01

    def test_thinning_consistency(self):
        # trajectories hitting x form a Poisson(alpha x / 2) thinning, so
        # x is vacant with probability exp(-alpha x / 2)
        L, M, x = 8, 10**5, 3
        counts, _, _ = il._simulate_window_batch(1.0, L, M, RngState(11).generator())
        p0 = float(np.mean(counts[:, L + x] == 0))
        t0 = math.exp(-x / 2)
        assert abs(p0 - t0) <= 4 * math.sqrt(t0 * (1 - t0) / M)
        # and the window local time agrees in law with the direct sampler
        law = il.local_time_pmf(x, 1.0)
        emp = np.bincount(counts[:, L + x]) / M
        assert tv_distance(emp, law) <= 0.01


class TestWindowChainVsWalk:
    """The edge-crossing chain against the step-by-step reference walk."""

    ALPHA = 1.0

    @staticmethod
    @functools.cache
    def _draws(L):
        M_chain, M_walk = 10**5, (4 * 10**4 if L < 8 else 2 * 10**4)
        chain = il._simulate_window_batch(TestWindowChainVsWalk.ALPHA, L, M_chain,
                                          RngState(21).generator())
        walk = _window_walk(TestWindowChainVsWalk.ALPHA, L, M_walk,
                            RngState(22).generator())
        return L, chain, walk

    @pytest.fixture(params=[1, 2, 8])
    def draws(self, request):
        return self._draws(request.param)

    def test_site_pmfs(self, draws):
        L, (c, _, _), (w, _, _) = draws
        for x in range(-L, L + 1):
            if x == 0:
                assert not c[:, L].any() and not w[:, L].any()
                continue
            law = il.local_time_pmf(abs(x), self.ALPHA)
            assert tv_distance(_pmf(c[:, L + x]), law) <= _tv_bound(law, len(c))
            assert tv_distance(_pmf(c[:, L + x]), _pmf(w[:, L + x])) <= \
                _tv_bound(law, len(c), len(w))

    def test_vacant_events(self, draws):
        L, (c, _, _), (w, _, _) = draws
        events = [((-1, 1), IntervalSet(-1, 1))]
        if L >= 2:
            events.append(((1, 2), IntervalSet(0, 2)))
        for sites, A in events:
            target = il.vacant_prob_exact(A, self.ALPHA)
            var = target * (1 - target)
            pc, pw = (float(np.mean(np.all(d[:, [L + s for s in sites]] == 0, axis=1)))
                      for d in (c, w))
            assert abs(pc - target) <= 4 * math.sqrt(var / len(c))
            assert abs(pc - pw) <= 4 * math.sqrt(var * (1 / len(c) + 1 / len(w)))

    def test_joint_law(self):
        # same side: cov(V_a, V_b) = 4 alpha a^2 b for 0 < a < b <= L, from
        # E[l_a l_b] = G(L,a) G(a,b) + G(L,b) G(b,a) per trajectory with
        # Green's function G(x,y) = 2 y min(x,y) / x; opposite sides: 0
        L, (c, _, _), (w, _, _) = self._draws(8)
        for d in (c, w):
            d = d.astype(np.float64)
            for sign in (-1, 1):
                cov, se = _cov_se(d[:, L + 2 * sign], d[:, L + 5 * sign])
                assert abs(cov - 4 * self.ALPHA * 2**2 * 5) <= 4 * se
            cov, se = _cov_se(d[:, L - 2], d[:, L + 2])
            assert abs(cov) <= 4 * se

    def test_trajectory_count(self, draws):
        L, (_, n_c, _), (_, n_w, _) = draws
        lam = self.ALPHA * L
        for n in (n_c, n_w):
            M = len(n)
            assert abs(n.mean() - lam) <= 4 * math.sqrt(lam / M)
            assert abs(n.var(ddof=1) - lam) <= 4 * math.sqrt((lam + 2 * lam**2) / M)

    def test_large_window(self):
        # process level at a size the step-by-step walk cannot reach
        L, M = 2048, 2000
        counts, _, _ = il._simulate_window_batch(
            self.ALPHA, L, M, RngState(25).generator())
        x = L // 2
        mean = il.local_time_mean(x, self.ALPHA)
        se = math.sqrt(il.local_time_variance(x, self.ALPHA) / M)
        assert abs(counts[:, L + x].mean() - mean) <= 4 * se
        vac = float(np.mean(np.all(counts[:, L + 1:L + 4] == 0, axis=1)))
        target = il.vacant_prob_exact(IntervalSet(0, 3), self.ALPHA)
        assert abs(vac - target) <= 4 * math.sqrt(target * (1 - target) / M)

    def test_no_trajectories(self):
        counts, n_traj, _ = il._simulate_window_batch(
            1e-6, 4, 100, RngState(26).generator())
        assert not n_traj.any() and not counts.any()

    @pytest.mark.parametrize("L, M", [(1, 1000), (8, 65536), (16, 4000)])
    def test_trajectory_counts_come_first(self, L, M):
        # the stream's first 2M uniforms are the Poisson counts of each side,
        # one uniform a count inverted in the exact Poisson table, however
        # the chain's negative binomials are drawn after them
        lam = self.ALPHA * L / 2
        assert il._poisson_law(lam, 2 * M) is not None
        _, n_traj, _ = il._simulate_window_batch(self.ALPHA, L, M, RngState(7).generator())
        n_side = _poisson_inversion(lam, RngState(7).generator().random(2 * M))
        assert np.array_equal(n_traj, n_side[:M] + n_side[M:])

    def test_peak_memory(self):
        # the counts (136 bytes a window at L = 8) and 5.0 arrays of the
        # chain's 2M counts, reached at level 8: the chain's counts, the
        # draws and the trajectory counts (2.5 arrays), and the level's
        # 239-row table, its search table and guide (1.9) beside the law
        # they are built from (0.7). With numpy drawing level 8 the peak was
        # 6.6 arrays, and 9.5 with numpy at every level and two more chain
        # arrays alive.
        L, M = 8, 65536
        tracemalloc.start()
        try:
            counts, _, _ = il._simulate_window_batch(self.ALPHA, L, M,
                                                     RngState(3).generator())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= counts.nbytes + 5.5 * 2 * M * 8

    def test_counts_digest(self):
        # the counts of the chain whose 2M Poisson counts, entry draw
        # U_8 = N + NegBin(N, 1/9) and levels x = 8..2 all invert exact
        # tables; the skipped draw at x = 1 is the chain's last, so no count
        # moves. The reference draws the Poisson counts by its own inversion
        # and runs the chain level by level into a row-major array
        L, M = 8, 65536
        counts, _, _ = il._simulate_window_batch(1.0, L, M, RngState(7).generator())
        assert hashlib.sha256(counts.tobytes()).hexdigest() == \
            "78cd42a1f5cd50f43e7f04827f5f511a1594234d60ffda541bbe8ad4549432cd"
        gen = RngState(7).generator()
        u = _poisson_inversion(L / 2, gen.random(2 * M))
        il._negbin(gen, u, 1 / (L + 1), out=u)
        want = np.zeros((M, 2 * L + 1), dtype=np.int64)
        for x in range(L, 1, -1):
            below = il._negbin(gen, u, (x + 1) / (2 * x))
            want[:, L - x], want[:, L + x] = u[:M] + below[:M], u[M:] + below[M:]
            u = below
        want[:, L - 1], want[:, L + 1] = u[:M], u[M:]
        assert np.array_equal(counts, want)

    def test_counts_stored_site_by_site(self):
        # each site's column is contiguous; values and bytes as row-major
        counts, _, _ = il._simulate_window_batch(1.0, 4, 1000, RngState(8).generator())
        assert counts.shape == (1000, 9) and counts.flags.f_contiguous
        assert counts[:, 5].flags.c_contiguous
        assert counts.tobytes() == np.ascontiguousarray(counts).tobytes()


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

    @pytest.mark.parametrize("x", [1, 3, 20])
    def test_against_geometric_sums(self, x):
        M = 2 * 10**5
        law = il.local_time_pmf(x, 1.0)
        s = il.sample_local_times(x, 1.0, M, RngState(5).generator())
        ref = _local_times_geometric(x, 1.0, M, RngState(6).generator())
        assert tv_distance(_pmf(s), law) <= _tv_bound(law, M)
        assert tv_distance(_pmf(s), _pmf(ref)) <= _tv_bound(law, M, M)

    def test_no_trajectories(self):
        s = il.sample_local_times(3, 1e-6, 100, RngState(0).generator())
        assert s.shape == (100,) and not s.any()

    def test_peak_memory(self):
        # x = 400 draws its negative binomials by numpy: the Poisson counts
        # that the draws are added into (8 bytes a draw), the live mask (1)
        # and numpy's negative_binomial, which holds 24 on its own: 33.2
        # bytes a draw, where every count is positive (the sampler held 60
        # before it added in place). x = 3 inverts the one-row table of the
        # local time's law: the draws, the slice buffers (4 bytes a draw at
        # this M) and the 23-row NegBin table it is mixed from: 13.5 bytes a
        # draw (14.4 by a Poisson and a NegBin table, 40.3 by numpy)
        M = 65536
        for x, bound in ((400, 34), (3, 16)):
            tracemalloc.start()
            try:
                il.sample_local_times(x, 1.0, M, RngState(3).generator())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound * M, x

    def test_numpy_path_keeps_its_bits(self):
        # at x = 400 the M Poisson counts invert their exact table (337
        # cells), and the negative binomials would pass their table's
        # budget, so numpy draws them after the M uniforms, bit for bit
        M, p = 65536, 1 / 800
        s = il.sample_local_times(400, 1.0, M, RngState(3).generator())
        assert hashlib.sha256(s.tobytes()).hexdigest() == \
            "a1cd57bd2a7e7401ac53abf49c4d44a5dca0f879ccc8d4bfbcc84b9d481c9a77"
        gen = RngState(3).generator()
        n = _poisson_inversion(200.0, gen.random(M))
        assert n.min() > 0 and il._negbin_law(int(n.max()), p, M) is None
        assert np.array_equal(s, n + gen.negative_binomial(n, p))

    def test_no_replicates(self):
        gen = RngState(0).generator()
        state = gen.bit_generator.state
        assert il.sample_local_times(3, 1.0, 0, gen).shape == (0,)
        counts, n_traj, _ = il._simulate_window_batch(1.0, 8, 0, gen)
        assert counts.shape == (0, 17) and n_traj.shape == (0,)
        assert gen.bit_generator.state == state


#: unit roundoff of float64
_U = 2.0**-53


def _negbin_pmf_exact(k, p, cols):
    """Exact P[NegBin(k, p) = j] for j < cols, at the float p's exact value.

    p is a/2**e exactly (Fraction(p)), so q = (2**e - a)/2**e and the pmf is
    C(k+j-1, j) a**k (2**e - a)**j / 2**(e (k + j)): returned as the
    numerators, with the denominators' exponents e (k + j).
    """
    P = Fraction(p)
    a, den = P.numerator, P.denominator
    e = den.bit_length() - 1
    b = den - a
    numerators, term = [], a**k
    for j in range(cols):
        numerators.append(term if k else int(j == 0))
        term = term * (k + j) // (j + 1) * b  # C(k+j, j+1) a**k b**(j+1)
    return numerators, [e * (k + j) for j in range(cols)]


def _rel_errors(row, numerators, exponents):
    """|row[j] / exact[j] - 1| for the cells of positive exact mass, each
    from one exactly rounded division of integers."""
    out = []
    for x, num, e in zip(row, numerators, exponents):
        if num:
            m, d = float(x).as_integer_ratio()
            out.append(abs(m * 2**e - num * d) / (num * d))
        else:
            assert x == 0.0
            out.append(0.0)
    return np.array(out)


class TestNegBinTable:
    """The exact NegBin table of _negbin_law against exact arithmetic."""

    PS = (1 / 6, 1 / 10, 9 / 16, 3 / 4)
    K = 12
    #: a budget the tables of these rows never reach
    DRAWS = 10**9

    @staticmethod
    def _tolerance(cols):
        # cell (k, j) is p**k (one pow, within an ulp: 2u) times j ratios
        # q (k + j - 1) / j (q = 1 - p within u, then a multiply and a
        # divide: 3u) with a rounded product each (u): (4j + 2)u, and u
        # more for the higher-order terms
        return (4 * np.arange(cols) + 3) * _U

    @pytest.mark.parametrize("p", PS)
    def test_matches_exact_pmf(self, p):
        law = il._negbin_law(self.K, p, self.DRAWS)
        tol = self._tolerance(law.shape[1])
        for k in range(self.K + 1):
            rel = _rel_errors(law[k], *_negbin_pmf_exact(k, p, law.shape[1]))
            assert np.all(rel <= tol), (k, float(np.max(rel / tol)))

    @pytest.mark.parametrize("p", PS)
    def test_planted_p_moves_the_table(self, p):
        # p(1 + 1e-6) moves cell (k, j) by about (k - j p/q) 1e-6 relative: some
        # cell of the table by more than a million tolerances
        law = il._negbin_law(self.K, p * (1 + 1e-6), self.DRAWS)
        tol = self._tolerance(law.shape[1])
        worst = max(float(np.max(_rel_errors(law[k], *_negbin_pmf_exact(k, p, law.shape[1]))
                                 / tol)) for k in range(1, self.K + 1))
        assert worst >= 1e6

    @pytest.mark.parametrize("p", PS)
    def test_tail_past_the_table(self, p):
        # every row's mass past the last column is below 2**-60, by the
        # regularized incomplete beta P[NegBin(k, p) >= J] = I_q(J, k) in
        # 40 digits; and one column fewer would leave row 12 more
        mpmath = pytest.importorskip("mpmath")
        cols = il._negbin_law(self.K, p, self.DRAWS).shape[1]
        P = Fraction(p)
        with mpmath.workdps(40):
            q = 1 - mpmath.mpf(P.numerator) / P.denominator
            for k in range(1, self.K + 1):
                assert mpmath.betainc(cols, k, 0, q, regularized=True) < mpmath.mpf(2)**-60
            assert mpmath.betainc(cols - 1, self.K, 0, q, regularized=True) >= \
                mpmath.mpf(2)**-60

    @staticmethod
    def _largest_table_row(p, draws):
        """The largest n_max whose table fits the budget of draws draws."""
        n_max = 1
        while il._negbin_law(n_max + 1, p, draws) is not None:
            n_max += 1
        return n_max

    def test_budget_edges(self):
        # one uniform per entry where the table has at most as many cells as
        # the draws; numpy's draws, bit for bit, one row past it
        p, draws = 1 / 6, 4096
        top = self._largest_table_row(p, draws)
        rows, cols = il._negbin_law(top, p, draws).shape
        assert rows * cols <= draws
        rows, cols = il._negbin_law(top + 1, p, self.DRAWS).shape
        assert rows * cols > draws
        n = np.arange(draws) % (top + 1)
        gen, ref = RngState(31).generator(), RngState(31).generator()
        out = il._negbin(gen, n, p)
        ref.random(draws)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert out.min() == 0 and out.max() < cols
        n = np.arange(draws) % (top + 2)
        gen, ref = RngState(31).generator(), RngState(31).generator()
        out = il._negbin(gen, n, p)
        want = np.zeros_like(n)
        want[n > 0] = ref.negative_binomial(n[n > 0], p)
        assert np.array_equal(out, want)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_budget_counts_the_draws(self):
        # the same row on either side of the budget as the draws grow
        p = 1 / 6
        rows, cols = il._negbin_law(9, p, self.DRAWS).shape
        assert il._negbin_law(9, p, rows * cols) is not None
        assert il._negbin_law(9, p, rows * cols - 1) is None

    @pytest.mark.parametrize("n", [np.zeros(0, dtype=np.int64),
                                   np.zeros(100, dtype=np.int64)])
    def test_nothing_to_draw(self, n):
        # no entry, or every entry 0: nothing is drawn and nothing added
        gen = RngState(32).generator()
        state = gen.bit_generator.state
        out = np.arange(len(n))
        assert il._negbin(gen, n, 0.3, out=out) is out
        assert np.array_equal(out, np.arange(len(n)))
        assert gen.bit_generator.state == state

    @pytest.mark.parametrize("frac", [0.0, 0.25, 0.75])
    @pytest.mark.parametrize("into", ["n", "fresh", "given"])
    def test_numpy_path_bits_and_memory(self, frac, into):
        # past the table's budget the positive entries draw by numpy, as
        # out[n > 0] += negative_binomial(n[n > 0], p) would, into out = n,
        # a fresh out or a given one; with zeros in n that holds the mask,
        # a byte an entry and four arrays as long as the positive entries
        # (the compressed n and, inside negative_binomial, its float copy,
        # the draws and one more), besides the fresh out: no gather of
        # out[n > 0] beside the draws
        size, p = 10**5, 1 / 800
        rng = np.random.default_rng(5)
        n = np.where(rng.random(size) < 1 - frac, rng.integers(300, 600, size), 0)
        assert il._negbin_law(int(n.max()), p, size) is None
        start = np.arange(size) if into == "given" else np.zeros(size, dtype=np.int64)
        want = n.copy() if into == "n" else start.copy()
        live = n > 0
        want[live] += RngState(41).generator().negative_binomial(n[live], p)
        arg = n.copy()
        out = {"n": arg, "fresh": None, "given": start.copy()}[into]
        gen = RngState(41).generator()
        tracemalloc.start()
        try:
            got = il._negbin(gen, arg, p, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, want)
        assert into == "n" or np.array_equal(arg, n)
        if frac:
            fresh = 8 * size if into == "fresh" else 0
            assert peak <= size + 32 * int(live.sum()) + fresh + 2**15

    def test_underflowing_start_draws_by_numpy(self):
        # p**n_max below the normal range has no table
        assert il._negbin_law(400, 1 / 6, self.DRAWS) is None
        assert il._negbin_law(390, 1 / 6, self.DRAWS) is not None

    def test_slices_draw_one_stream(self):
        # an n longer than a slice draws the uniforms of one long call, in
        # order: entry i takes the outcome of the i-th uniform in its row
        p, size = 1 / 6, 3 * il._DRAW_SLICE + 5
        n = np.arange(size) % 10
        out = il._negbin(RngState(33).generator(), n, p)
        law = il._negbin_law(9, p, size)
        cdf = np.cumsum(law, axis=1)
        u = RngState(33).generator().random(size)
        want = np.array([min(np.searchsorted(cdf[k], v, side="right"), law.shape[1] - 1)
                         for k, v in zip(n, u)])
        assert np.array_equal(out, want)


class TestPoissonTable:
    """The exact Poisson table of _poisson_law and its draws."""

    LAMS = (1e-6, 0.5, 1.5, 4.0, 200.0, 708.0)
    #: a budget the tables of these rates never reach
    DRAWS = 10**9

    @pytest.mark.parametrize("lam", LAMS)
    def test_matches_mpmath(self, lam):
        # cell j is e**-lam (math.exp, within an ulp: 2u) times j ratios
        # lam / j (one divide: u) with a rounded product each (u): (2j + 2)u,
        # and u more for the higher-order terms; against e**-lam lam**j / j!
        # in 50 digits at the float lam's exact value
        mpmath = pytest.importorskip("mpmath")
        law = il._poisson_law(lam, self.DRAWS)
        assert law.shape[0] == 1 and np.all(law > 0)
        with mpmath.workdps(50):
            rate = mpmath.mpf(lam)
            term = mpmath.exp(-rate)
            for j, cell in enumerate(law[0]):
                if j:
                    term = term * rate / j
                assert abs(mpmath.mpf(float(cell)) / term - 1) <= (2 * j + 3) * _U, j

    @pytest.mark.parametrize("lam", LAMS)
    def test_tail_past_the_table(self, lam):
        # the mass from the last column on is below 2**-60, by mpmath's
        # regularized lower incomplete gamma P[Poisson(lam) >= J] = P(J, lam)
        # in 50 digits; one column fewer would leave more
        mpmath = pytest.importorskip("mpmath")
        cols = il._poisson_law(lam, self.DRAWS).shape[1]
        with mpmath.workdps(50):
            rate = mpmath.mpf(lam)
            assert mpmath.gammainc(cols, 0, rate, regularized=True) < mpmath.mpf(2)**-60
            assert mpmath.gammainc(cols - 1, 0, rate, regularized=True) >= \
                mpmath.mpf(2)**-60

    def test_budget_edges(self):
        # one uniform per count where the table has at most as many cells as
        # the draws; numpy's poisson, bit for bit, one draw fewer
        lam = 4.0
        cols = il._poisson_law(lam, self.DRAWS).shape[1]
        assert il._poisson_law(lam, cols) is not None
        assert il._poisson_law(lam, cols - 1) is None
        gen, ref = RngState(34).generator(), RngState(34).generator()
        out = il._poisson(gen, lam, cols)
        assert np.array_equal(out, _poisson_inversion(lam, ref.random(cols)))
        assert gen.bit_generator.state == ref.bit_generator.state
        gen, ref = RngState(34).generator(), RngState(34).generator()
        out = il._poisson(gen, lam, cols - 1)
        assert np.array_equal(out, ref.poisson(lam, cols - 1))
        assert gen.bit_generator.state == ref.bit_generator.state
        assert hashlib.sha256(out.tobytes()).hexdigest() == \
            "ee76e367cebf6e5f0462f6aa3fa46a732def075cec9bc9fdfb38041b88a6abda"

    def test_underflowing_start_draws_by_numpy(self):
        # e**-lam below the normal range has no table, and numpy draws
        assert il._poisson_law(708.0, self.DRAWS) is not None
        assert il._poisson_law(709.0, self.DRAWS) is None
        gen, ref = RngState(35).generator(), RngState(35).generator()
        out = il._poisson(gen, 710.0, 4096)
        assert np.array_equal(out, ref.poisson(710.0, 4096))
        assert gen.bit_generator.state == ref.bit_generator.state
        assert hashlib.sha256(out.tobytes()).hexdigest() == \
            "d5b31c9b8326a892ece889f6b1e338eab6277500f1bcfa495fc8c42f6134cff7"

    def test_single_window_draws_by_numpy(self):
        # a single window's two counts have no table: numpy's poisson
        gen, ref = RngState(36).generator(), RngState(36).generator()
        _, n_traj, _ = il._simulate_window_batch(1.0, 8, 1, gen)
        assert n_traj[0] == ref.poisson(4.0, 2).sum()

    def test_slices_draw_one_stream(self):
        # counts longer than a slice draw the uniforms of one long call, in
        # order, one a count, whatever the rate
        size = 3 * il._DRAW_SLICE + 5
        for lam in (0.5, 200.0):
            gen, ref = RngState(37).generator(), RngState(37).generator()
            out = il._poisson(gen, lam, size)
            cdf = np.cumsum(il._poisson_law(lam, size)[0])
            want = np.minimum(np.searchsorted(cdf, ref.random(size), side="right"),
                              len(cdf) - 1)
            assert out.dtype == np.int64 and np.array_equal(out, want)
            assert gen.bit_generator.state == ref.bit_generator.state


class TestCompoundTable:
    """The one-row table of the local time's law, N + NegBin(N, p) for
    N ~ Poisson(lam), and the draws of sample_local_times from it."""

    #: a budget the tables of these laws never reach
    DRAWS = 10**9

    @staticmethod
    def _law(x, alpha, draws):
        poisson = il._poisson_law(alpha * x / 2, draws)
        return il._compound_law(poisson, 1 / (2 * x), draws)

    @pytest.mark.parametrize("x", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    def test_matches_panjer(self, x, alpha):
        # against the independent Panjer recursion: within its relative
        # error of order s eps ((s + 2) eps: the cell at s = 0 is e**-lam in
        # both), besides the mass left out by the two cuts, below 2**-59;
        # and the row's cells past the recursion's end, whose tail is below
        # 1e-12
        law = self._law(x, alpha, self.DRAWS)
        pmf = il.local_time_pmf(x, alpha).pmf
        assert law.shape[0] == 1 and np.all(law > 0) and law.shape[1] >= len(pmf)
        s = np.arange(len(pmf))
        err = np.abs(law[0, :len(pmf)] - pmf)
        assert np.all(err <= (s + 2) * 2 * _U * pmf + 2.0**-59)
        assert law[0, len(pmf):].sum() <= 1e-12

    @pytest.mark.parametrize("alpha", [0.25, 1.0, 4.0])
    def test_matches_exact(self, alpha):
        # at x = 2 against the exact mixture of the same cut rows, at the
        # exact values of the floats e**-lam, lam and p: cell s sums at most
        # rows products of a Poisson cell k ((2k + 3)u) and a NegBin cell
        # j = s - k ((4j + 3)u), each rounded (u), in a running sum of
        # positive terms (rows u): (4s + rows + 7)u, and u more for the
        # higher-order terms
        x = 2
        lam, p = alpha * x / 2, 1 / (2 * x)
        poisson = il._poisson_law(lam, self.DRAWS)
        law = il._compound_law(poisson, p, self.DRAWS)[0]
        rows = poisson.shape[1]
        cols = len(law) - rows + 1
        exact = [Fraction(0)] * len(law)
        weight, rate = Fraction(math.exp(-lam)), Fraction(lam)
        for k in range(rows):
            if k:
                weight = weight * rate / k
            for j, (num, e) in enumerate(zip(*_negbin_pmf_exact(k, p, cols))):
                exact[k + j] += weight * Fraction(num, 2**e)
        rel = np.array([float(abs(Fraction(v) / e - 1)) for v, e in zip(law, exact)])
        tol = (4 * np.arange(len(law)) + rows + 8) * _U
        assert np.all(rel <= tol), float(np.max(rel / tol))

    @pytest.mark.parametrize("x, M", [(3, 65536), (5, 65536), (1, 3 * il._DRAW_SLICE + 5)])
    def test_one_uniform_per_draw(self, x, M):
        # where the table fits, local time i is the outcome of the i-th of
        # M uniforms, drawn as one gen.random(M), in the row's running sums
        law = self._law(x, 1.0, M)
        assert law is not None
        gen, ref = RngState(38).generator(), RngState(38).generator()
        s = il.sample_local_times(x, 1.0, M, gen)
        cdf = np.cumsum(law[0])
        want = np.minimum(np.searchsorted(cdf, ref.random(M), side="right"), len(cdf) - 1)
        assert s.dtype == np.int64 and np.array_equal(s, want)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_budget_edge(self):
        # the row is built when the NegBin table it is mixed from has at
        # most as many cells as the draws (the row has fewer); one draw
        # fewer, the local times take two steps: the Poisson counts by
        # their table, then the negative binomials added in
        x, lam, p = 1, 0.5, 0.5
        poisson = il._poisson_law(lam, self.DRAWS)
        rows, cols = il._negbin_law(poisson.shape[1] - 1, p, self.DRAWS).shape
        draws = rows * cols
        assert il._compound_law(poisson, p, draws).shape == (1, rows - 1 + cols)
        assert il._compound_law(poisson, p, draws - 1) is None
        gen, ref = RngState(39).generator(), RngState(39).generator()
        il.sample_local_times(x, 1.0, draws, gen)
        ref.random(draws)
        assert gen.bit_generator.state == ref.bit_generator.state
        gen, ref = RngState(39).generator(), RngState(39).generator()
        s = il.sample_local_times(x, 1.0, draws - 1, gen)
        n = _poisson_inversion(lam, ref.random(draws - 1))
        assert np.array_equal(s, il._negbin(ref, n, p, out=n))
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("x, M", [(400, 65536), (3, 100), (3, 4)])
    def test_two_step_path(self, x, M):
        # past the budget (x = 400, and small batches) the M Poisson counts
        # come first, by their table or by numpy, then the negative
        # binomials, as two calls draw them
        lam, p = x / 2, 1 / (2 * x)
        poisson = il._poisson_law(lam, M)
        assert poisson is None or il._compound_law(poisson, p, M) is None
        gen, ref = RngState(40).generator(), RngState(40).generator()
        s = il.sample_local_times(x, 1.0, M, gen)
        n = il._poisson(ref, lam, M)
        assert np.array_equal(s, il._negbin(ref, n, p, out=n))
        assert gen.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("alpha", [1e-30, 1e-300])
    def test_vanishing_level(self, alpha):
        # as alpha -> 0 the law is one cell at 0: every local time is 0,
        # still one uniform each
        M = 65536
        assert np.array_equal(self._law(3, alpha, M), [[1.0]])
        gen, ref = RngState(41).generator(), RngState(41).generator()
        s = il.sample_local_times(3, alpha, M, gen)
        ref.random(M)
        assert s.shape == (M,) and not s.any()
        assert gen.bit_generator.state == ref.bit_generator.state


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


def _pmf_dot(x, alpha, s_max):
    """Reference pmf: Panjer's recursion as one O(s) dot product per entry.

    f(0) = exp(-lam), f(s) = (lam/s) sum_{j=1..s} j g(j) f(s-j) with
    lam = alpha*x/2 and g(j) = p q^{j-1}, p = 1/(2x); O(s_max^2) in all.
    """
    lam = alpha * x / 2
    p = 1 / (2 * x)
    q = 1 - p
    j = np.arange(1, s_max + 1, dtype=np.float64)
    jg = j * p * q ** (j - 1)
    f = np.zeros(s_max + 1)
    f[0] = math.exp(-lam)
    for s in range(1, s_max + 1):
        f[s] = lam / s * float(np.dot(jg[:s], f[s - 1::-1]))
    return f


def _pmf_mpmath(x, alpha, s_max):
    """The running-sum recursion of ``local_time_pmf`` in 40-digit arithmetic."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        c = mpmath.mpf(alpha) / 4
        q = 1 - mpmath.mpf(1) / (2 * x)
        prev = mpmath.exp(-mpmath.mpf(alpha) * x / 2)
        f = [prev]
        S = T = mpmath.mpf(0)
        for s in range(1, s_max + 1):
            S = prev + q * (S + T)
            T = prev + q * T
            prev = c / s * S
            f.append(prev)
        return f


def _max_rel(got, ref):
    """Largest relative error of got on the entries of ref inside the normal range."""
    ref = np.asarray(ref, dtype=np.float64)
    keep = ref >= 1e-300
    return float(np.max(np.abs(got[keep] / ref[keep] - 1)))


class TestPmfRunningSums:
    """The O(s_max) running-sum pmf against its oracles."""

    @pytest.mark.parametrize("s_max", [None, 0, 5])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
    @pytest.mark.parametrize("x", [1, 2, 3, 5, 20, 100])
    def test_matches_dot_product_form(self, x, alpha, s_max):
        law = il.local_time_pmf(x, alpha, s_max)
        assert _max_rel(law.pmf, _pmf_dot(x, alpha, law.s_max)) <= 1e-13

    @pytest.mark.parametrize("x", [3, 100])
    def test_matches_40_digit_run(self, x):
        law = il.local_time_pmf(x, 1.0)
        assert _max_rel(law.pmf, _pmf_mpmath(x, 1.0, law.s_max)) <= 1e-12

    def test_signed_tail_mass(self):
        # the sum's rounding excess (about +2e-12 here) is reported, not clamped
        law = il.local_time_pmf(200, 1.0)
        assert law.tail_mass == 1 - law.pmf.sum()
        assert abs(law.tail_mass) <= 1e-10

    def test_far_site(self):
        # exp(-800) = f(0) is below the double range, yet the law is whole
        x = 1600
        law = il.local_time_pmf(x, 1.0)
        assert law.pmf[0] == 0.0
        assert abs(law.mean() / il.local_time_mean(x, 1.0) - 1) <= 1e-9
        assert abs(law.variance() / il.local_time_variance(x, 1.0) - 1) <= 1e-9
        assert abs(law.tail_mass) <= 1e-9 and not law.truncation_warning
        # a truncation that stops before the first rescaling is a prefix of
        # the law, though its scale factor exp(-800) underflows on its own
        short = il.local_time_pmf(x, 1.0, s_max=20000)
        assert np.count_nonzero(short.pmf) > 15000
        assert np.array_equal(short.pmf, law.pmf[:20001])

    def test_truncation_cap_names_its_input(self):
        with pytest.raises(RuntimeError, match=r"x = 10000, alpha = 1\b.*10,000,000"):
            il.local_time_pmf(10000, 1.0)


def _chernoff_log_tail(x, alpha, s):
    """Log of the Chernoff bound on P[local time > s]: the compound-Poisson
    log mgf minus theta*s, minimized over the theta grid of the default
    truncation."""
    lam, p = alpha * x / 2, 1 / (2 * x)
    theta = np.linspace(1e-8, -math.log(1 - p) * 0.999, 256)
    et = np.exp(theta)
    return float(np.min(lam * (p * et / (1 - (1 - p) * et) - 1) - theta * s))


class TestDefaultTruncation:
    @pytest.mark.parametrize("x, alpha", [(1, 1.0), (3, 0.3), (20, 2.5),
                                          (100, 1.0), (200, 1.0), (1600, 1.0)])
    def test_smallest_point_passing_the_bound(self, x, alpha):
        s = il._default_s_max(x, alpha)
        assert _chernoff_log_tail(x, alpha, s) < math.log(1e-12)
        assert _chernoff_log_tail(x, alpha, s - 1) >= math.log(1e-12)

    def test_values_and_cap(self):
        assert [il._default_s_max(x, 1.0) for x in (100, 200, 1600)] == \
            [30362, 93065, 3599864]
        assert il._default_s_max(2770, 1.0) <= 10**7
        with pytest.raises(RuntimeError, match="x = 2771"):
            il._default_s_max(2771, 1.0)
        with pytest.raises(RuntimeError, match="x = 10000"):
            il._default_s_max(10000, 1.0)


class TestMomentsMemory:
    def test_one_pmf_sized_temporary(self):
        law = il.local_time_pmf(1000, 1.0)
        s = np.arange(len(law.pmf))
        mean_ref = float(np.dot(s, law.pmf))
        var_ref = float(np.dot((s - mean_ref) ** 2, law.pmf))
        del s
        for moment, ref in ((law.mean, mean_ref), (law.variance, var_ref)):
            tracemalloc.start()
            try:
                value = moment()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.1 * law.pmf.nbytes
            assert abs(value / ref - 1) <= 1e-14


class TestExactCltRate:
    """The paper's CLT at x -> infinity, measured on the exact law.

    sqrt(x) * KS(law at x, N(alpha x^2, alpha (4x-1) x^2)) tends to the
    one-term Edgeworth value gamma phi(0) / 6 * sqrt(x) = 1 / (2 sqrt(2 pi))
    at alpha = 1, with skewness gamma = 3 (1 - 1/(8x)) / sqrt(x). The next
    terms are O(1/x) in this scaled statistic: half an atom at the mode,
    phi(0) / (2 sigma), gives +0.0997/x; the skewness correction -0.0249/x;
    the shift of the maximum by the kappa_4 and gamma^2 terms +0.0187/x; and
    the order-x^{-3/2} Edgeworth terms at z = 0 +0.0249/x. So the statistic is
    0.19947 + 0.118/x + O(x^{-3/2}): 0.59% above the limit at x = 100 and
    0.15% at x = 400, inside the 1% bound, and decreasing in x.
    """

    LIMIT = 1 / (2 * math.sqrt(2 * math.pi))

    @staticmethod
    def _scaled_ks(x):
        law = il.local_time_pmf(x, 1.0)
        cdf = np.cumsum(law.pmf)
        s = np.arange(len(law.pmf))
        phi = ndtr(il.standardize_local_time(s, x, 1.0))
        below = np.concatenate(([0.0], cdf[:-1]))  # the CDF just left of s
        ks = max(np.max(np.abs(cdf - phi)), np.max(np.abs(below - phi)))
        return math.sqrt(x) * ks

    def test_rate(self):
        stats = [self._scaled_ks(x) for x in (25, 100, 400)]
        assert stats[0] > stats[1] > stats[2]
        for stat in stats[1:]:
            assert abs(stat / self.LIMIT - 1) <= 0.01


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
