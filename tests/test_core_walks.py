import hashlib
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ri1d import core_walks as cw
from ri1d import ring_kernel as rk
from ri1d.rngs import RngState


class TestStepProbs:
    def test_values(self):
        assert cw.step_up_prob(1) == 1.0
        assert cw.step_up_prob(2) == 0.75
        assert cw.step_up_prob(10) == 0.55

    def test_domain(self):
        with pytest.raises(ValueError):
            cw.step_up_prob(0)
        with pytest.raises(ValueError):
            cw.step_up_prob(-3)

    def test_sum_exact_and_drift(self):
        for x in range(1, 10**4):
            up = cw.step_up_prob(x)
            assert up + cw.step_down_prob(x) == 1.0
            assert up > 0.5


def _path_prob(path):
    """Probability of a path under the conditioned walk, by the Doob identity.

    The conditioned walk is the h-transform of the simple walk with h(x) = x,
    so a path's probability is final/(2^m * start).
    """
    return path.final / (2**path.n_steps * path.start)


class TestWalkPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            cw.WalkPath((2, 4))  # step of size 2
        with pytest.raises(ValueError):
            cw.WalkPath((1, 0))  # touches 0
        with pytest.raises(ValueError):
            cw.WalkPath(())

    def test_path_prob_formula(self):
        p = cw.WalkPath((2, 3, 4, 3))
        # (3/4)(2/3)(3/8) vs final/(2^m start) = 3/(8*2)
        assert _path_prob(p) == pytest.approx(3 / 16, rel=1e-15)

    def _enumerate(self, x0, m):
        paths = []
        for steps in product((-1, 1), repeat=m):
            pos = [x0]
            for s in steps:
                pos.append(pos[-1] + s)
            if min(pos) >= 1:
                paths.append(cw.WalkPath(tuple(pos)))
        return paths

    def test_law_of_total_probability(self):
        for x0 in (1, 2, 3, 5):
            for m in (1, 4, 8, 12):
                total = sum(_path_prob(p) for p in self._enumerate(x0, m))
                assert abs(total - 1.0) < 1e-12

    def test_path_prob_matches_step_product(self):
        for p in self._enumerate(2, 6):
            prod = 1.0
            for a, b in zip(p.positions, p.positions[1:]):
                prod *= cw.step_up_prob(a) if b > a else cw.step_down_prob(a)
            assert _path_prob(p) == pytest.approx(prod, rel=1e-13)


class TestClosedForms:
    def test_hit_before(self):
        assert cw.hit_before_prob(5, 2, 12) == pytest.approx(0.28, rel=1e-15)
        with pytest.raises(ValueError):
            cw.hit_before_prob(5, 5, 12)
        with pytest.raises(ValueError):
            cw.hit_before_prob(12, 2, 5)

    def test_hit_prob(self):
        assert cw.hit_prob(5, 2) == 0.4
        assert cw.hit_prob(7, 7) == 1.0
        with pytest.raises(ValueError):
            cw.hit_prob(2, 5)

    def test_escape_prob(self):
        assert cw.escape_prob(1) == 0.5
        assert cw.escape_prob(10) == 0.05

    def test_martingale_defect_bound(self):
        xs = np.unique(np.concatenate(
            [np.arange(2, 2000), np.geomspace(2, 10**6, 5000).astype(np.int64)]))
        assert np.all(cw.martingale_defect(xs) <= 1e-14 / xs)

    def test_martingale_domain(self):
        with pytest.raises(ValueError):
            cw.martingale_defect(1)

    def test_first_step_recursion_hit_prob(self):
        for y in range(3, 300):
            lhs = cw.hit_prob(y, 2)
            rhs = cw.step_up_prob(y) * cw.hit_prob(y + 1, 2) \
                + cw.step_down_prob(y) * cw.hit_prob(y - 1, 2)
            assert abs(rhs - lhs) <= 1e-14 * lhs


class TestPathCounting:
    def test_small_values(self):
        assert cw.count_paths(1, 1, 2) == 1
        assert cw.count_paths(1, 2, 1) == 1  # only 1->2->1
        assert cw.count_paths(2, 2, 2) == 2
        assert cw.count_paths(1, 3, 2) == 2

    def test_parity_and_range(self):
        assert cw.count_paths(2, 3, 2) == 0
        assert cw.count_paths(1, 4, 7) == 0

    def test_exhaustive_vs_enumeration(self):
        for delta in range(0, 15):
            for x in range(1, 7):
                counts = cw.enumerate_paths(x, delta)
                assert len(counts) == x + delta + 1
                assert counts[0] == 0
                # Doob identity: the weights k / (x 2^delta) sum to 1
                assert sum(k * int(c) for k, c in enumerate(counts)) == x << delta
                for k in range(1, x + delta + 1):
                    assert cw.count_paths(x, delta, k) == counts[k], (x, delta, k)

    def test_enumeration_peak_memory(self):
        # a few columns of one 2**20 chunk (4 MiB each as uint32), never a
        # chunk x delta matrix of steps
        tracemalloc.start()
        try:
            counts = cw.enumerate_paths(1, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert counts[0] == 0
        for k in range(1, 22):
            assert cw.count_paths(1, 20, k) == counts[k]

    def test_enumeration_budget(self):
        with pytest.raises(ValueError):
            cw.enumerate_paths(1, 25)

    def test_array_of_starts(self):
        # one pass over the sequences gives each start's vector, padded with
        # zeros to the longest; a start below 1 anywhere raises
        starts = [3, 1, 6]
        for delta in (0, 1, 9):
            got = cw.enumerate_paths(starts, delta)
            assert got.shape == (3, 6 + delta + 1)
            for row, x in zip(got, starts):
                for k in range(1, x + delta + 1):
                    assert row[k] == cw.count_paths(x, delta, k), (x, delta, k)
                assert row[0] == 0 and not row[x + delta + 1:].any()
        with pytest.raises(ValueError):
            cw.enumerate_paths([2, 0], 3)

    def test_counts_define_probabilities(self):
        # k/ (x 2^delta) weighted counts sum to 1 over all endpoints
        for x in (1, 3):
            for delta in (6, 11):
                total = sum(
                    Fraction(k * cw.count_paths(x, delta, k), x * 2**delta)
                    for k in range(1, x + delta + 1))
                assert total == 1

    def test_large_delta_exact(self):
        # exact big-integer path: no overflow at delta in the thousands
        val = cw.count_paths(2, 2000, 4)
        assert val > 0 and isinstance(val, int)


class TestEndpointLeqProb:
    def test_two_step_example(self):
        exact, _ = cw.endpoint_leq_prob(2, 2, 2)
        assert exact == pytest.approx(0.5, abs=1e-15)

    def test_all_mass(self):
        exact, _ = cw.endpoint_leq_prob(3, 9, 100)
        assert exact == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_x_and_delta(self):
        # monotone in x within a parity class (changing the parity of x also
        # changes which endpoints k <= y are reachable)
        for xs in ((2, 4, 8), (1, 3, 7)):
            vals_x = [cw.endpoint_leq_prob(x, 500, 8)[0] for x in xs]
            assert all(a >= b for a, b in zip(vals_x, vals_x[1:]))
        vals_d = [cw.endpoint_leq_prob(2, d, 8)[0] for d in (250, 500, 1000)]
        assert all(a >= b for a, b in zip(vals_d, vals_d[1:]))

    def test_exact_against_float_propagation(self):
        # the oracle of acceptance check 12 at its own inputs, against the
        # walk's law propagated step by step in floating point
        x, delta, y = 2, 10**4, 10
        k = np.arange(x + delta + 2)
        up = np.zeros(k.size)
        up[1:] = (k[1:] + 1) / (2 * k[1:])
        down = 1 - up
        down[0] = 0.0
        law = np.zeros(k.size)
        law[x] = 1.0
        for _ in range(delta):
            nxt = np.zeros_like(law)
            nxt[1:] = law[:-1] * up[:-1]
            nxt[:-1] += law[1:] * down[1:]
            law = nxt
        exact, _ = cw.endpoint_leq_prob(x, delta, y)
        assert exact == pytest.approx(law[:y + 1].sum(), rel=1e-12)

    @pytest.mark.parametrize("x,delta,y", [
        (2, 10**4, 10),  # check 12b
        (3, 10**4 + 1, 9), (1, 1, 1), (1, 2, 1), (5, 3, 1), (5, 3, 2), (4, 3, 50),
        (9, 6, 4), (2, 7, 100), (30, 12, 25)])
    def test_exact_equals_the_per_endpoint_sum(self, x, delta, y):
        # one binomial stepped by integer ratios gives the numerator of the
        # sum of k count_paths(x, delta, k) over k <= y, so the same double
        numerator = sum(k * cw.count_paths(x, delta, k) for k in range(1, y + 1))
        exact, _ = cw.endpoint_leq_prob(x, delta, y)
        assert exact == float(Fraction(numerator, x << delta))

    def test_asymptotic_value(self):
        _, asym = cw.endpoint_leq_prob(2, 10**4, 10)
        assert asym == pytest.approx(math.sqrt(2 / math.pi) * 1000 / (3 * 10**6),
                                     rel=1e-12)


def _absorb_loop(gen, pos, lo, hi, max_steps):
    """Reference absorption loop, one uniform per walker and step: the
    oracle of the law of :func:`ri1d.core_walks._absorb`."""
    hits = 0
    for _ in range(max_steps):
        if not pos.size:
            break
        u = gen.random(pos.size)
        pos = pos + np.where(u < (pos + 1) / (2 * pos), 1, -1)
        done = pos == lo
        hits += int(done.sum())
        if hi is not None:
            done |= pos == hi
        pos = pos[~done]
    return hits, pos


def _enumerated_absorb_law(first, count, lo, hi, steps):
    """law[r, o] of one absorbing block from all 2**steps step sequences.

    A depth-first walk over the sequences, each weighted by the exact
    product of its step probabilities (s+1)/(2s) and 1 minus it as
    fractions; a sequence that lands on lo or hi stops there, so all the
    sequences that share that prefix count once.
    """
    law = np.zeros((count, steps + 3))
    for r in range(count):
        cells = {}

        def walk(y, i, j, prob):
            if y == lo or y == hi:
                o = 0 if y == lo else steps + 2
            elif i == steps:
                o = 1 + j
            else:
                up = Fraction(y + 1, 2 * y)
                walk(y + 1, i + 1, j + 1, prob * up)
                walk(y - 1, i + 1, j, prob * (1 - up))
                return
            cells[o] = cells.get(o, 0) + prob

        walk(first + r, 0, 0, Fraction(1))
        for o, prob in cells.items():
            law[r, o] = float(prob)
    return law


def _fraction_absorb_law(first, count, lo, hi, steps):
    """law[r, o] of one absorbing stretch, each cell the double nearest its
    exact value: the conditioned walk propagated in fractions, the mass on
    each (site, up-steps) pair, absorbed on lo and hi."""
    law = np.zeros((count, steps + 3))
    for r in range(count):
        mass, sinks = {(first + r, 0): Fraction(1)}, [Fraction(0), Fraction(0)]
        for _ in range(steps):
            nxt = {}
            for (y, j), m in mass.items():
                up = Fraction(y + 1, 2 * y)
                for z, dj, p in ((y + 1, 1, up), (y - 1, 0, 1 - up)):
                    if z == lo or z == hi:
                        sinks[z == hi] += m * p
                    else:
                        nxt[z, j + dj] = nxt.get((z, j + dj), 0) + m * p
            mass = nxt
        for (_, j), m in mass.items():
            law[r, 1 + j] = float(m)
        law[r, 0], law[r, -1] = float(sinks[0]), float(sinks[1])
    return law


def _killed_law(start, lo, hi, steps):
    """Exact law of the conditioned walk from start after ``steps`` steps,
    absorbed at lo and hi: (mass absorbed at lo, at hi, mass on each site
    lo, lo + 1, .., the highest reachable)."""
    top = start + steps + 1 if hi is None else hi
    sites = np.arange(lo, top + 1)
    up = (sites + 1) / (2 * np.maximum(sites, 1))
    up[-1] = 0.0  # past the reachable sites, or hi
    law = np.zeros(sites.size)
    law[start - lo] = 1.0
    at_lo = at_hi = 0.0
    for _ in range(steps):
        nxt = np.zeros_like(law)
        nxt[1:] = law[:-1] * up[:-1]
        nxt[:-1] += law[1:] * (1 - up[1:])
        at_lo += nxt[0]
        nxt[0] = 0.0
        if hi is not None:
            at_hi += nxt[-1]
            nxt[-1] = 0.0
        law = nxt
    return at_lo, at_hi, law


def _binomial_z(count, M, p):
    """z of a binomial count; a count of mass-0 outcomes is 0 or infinitely off."""
    if p == 0:
        return 0.0 if count == 0 else math.inf
    return (count - M * p) / math.sqrt(M * p * (1 - p))


#: |z| bound of every binomial comparison with an exact law, fixed from the
#: normal approximation before any seed ran: one cell exceeds it by chance
#: with probability 6e-7, some cell of a hundred with 6e-5
Z_MAX = 5.0


class TestAbsorbBlockLaw:
    """The block law behind _absorb and its inverse-CDF search."""

    eps = np.finfo(float).eps

    # (lo, hi, first start, rows): starts next to lo and next to hi, no hi
    # with lo = 0 (site 1 steps up surely), and far starts with and without hi
    CASES = [(2, 12, 3, 9), (0, None, 1, 4), (10**6 - 3, None, 10**6 - 2, 5),
             (10**6 - 3, 10**6 + 4, 10**6 - 2, 6)]
    #: sha256 of each case's laws at 1, 5, 12 and 32 steps.
    #: test_matches_enumeration and test_cells_are_correctly_rounded hold
    #: every cell to the double nearest its exact value
    CASES_SHA256 = [
        "268d5abc105e3a1fe5e9243736af349122a4870014cd4e0857c818534e6239c3",
        "c4164ce94b980f4daa52764a4f5f8462062c17799430ed89233f101736a81f85",
        "a6383886267a3158d8c109d45b614fa509028ff00c9e0c6c9342ef59cbea20c1",
        "17626f5430b96637b0d26f3023b8911f1c55aab177cbdf4e7e903c7a1358b08e"]

    @pytest.mark.parametrize("case,digest", zip(CASES, CASES_SHA256),
                             ids=[str(case) for case in CASES])
    def test_laws_keep_their_bits(self, case, digest):
        lo, hi, first, count = case
        sites = np.arange(first, first + count)
        laws = [cw._absorb_law(sites, lo, hi, steps) for steps in (1, 5, 12, 32)]
        assert hashlib.sha256(b"".join(law.tobytes() for law in laws)).hexdigest() == digest

    #: every row of intervals of width W = 2, 3 and 4, where each count sums
    #: images of lo and hi every W up-steps (at W = 2 none survives a step)
    NARROW = [(0, 2, 1, 1), (5, 7, 6, 1), (0, 3, 1, 2), (4, 7, 5, 2), (0, 4, 1, 3),
              (10, 14, 11, 3)]
    #: every row of two intervals near 3e6, above 2**21: a sink's count of
    #: up to 32 bits times a site of 22 bits may need 54, so a float product
    #: before the division by x would round twice. At 32 steps it does for
    #: the sink at lo of the row from 2999999 in the first and the sink at
    #: hi of the row from 3000011 in the second, one ulp off the exact law
    ABOVE_2_21 = [(2999997, 3000012, 2999998, 14), (2999998, 3000013, 2999999, 14)]

    @pytest.mark.parametrize("steps", [20, 32])
    @pytest.mark.parametrize("lo,hi,first,count", CASES + NARROW + ABOVE_2_21)
    def test_cells_are_correctly_rounded(self, lo, hi, first, count, steps):
        # every cell is an exact integer over x 2**steps divided once, so it
        # is the double nearest the exact law; test_matches_enumeration
        # holds the shorter laws to the same
        law = cw._absorb_law(np.arange(first, first + count), lo, hi, steps)
        assert np.array_equal(law, _fraction_absorb_law(first, count, lo, hi, steps))

    @pytest.mark.parametrize("steps", [1, 5, 12])
    @pytest.mark.parametrize("lo,hi,first,count",
                             CASES + NARROW + [(2, None, 20, 3), (0, None, 9, 2)])
    def test_matches_enumeration(self, lo, hi, first, count, steps):
        # (2, None, 20, 3): rows too far from lo to reach it in 12 steps
        law = cw._absorb_law(np.arange(first, first + count), lo, hi, steps)
        ref = _enumerated_absorb_law(first, count, lo, hi, steps)
        assert law.shape == (count, steps + 3)
        assert np.array_equal(law, ref)
        assert np.max(np.abs(law.sum(axis=1) - 1)) <= 8 * self.eps
        if hi is None:
            assert np.all(law[:, -1] == 0.0)

    @pytest.mark.parametrize("steps", [1, 5, 12, 32])
    @pytest.mark.parametrize("lo,hi,first,count", CASES)
    def test_rows_are_independent(self, lo, hi, first, count, steps):
        # row r is the one-row law from first + r, bit for bit: each row
        # reads only its own site (without hi, whatever the highest site
        # is), and _absorb draws the same outcomes whichever site its
        # rebuilt table starts from
        law = cw._absorb_law(np.arange(first, first + count), lo, hi, steps)
        for r in range(count):
            one = cw._absorb_law(np.array([first + r]), lo, hi, steps)
            assert np.array_equal(law[r], one[0])

    @pytest.mark.parametrize("steps", [1, 12, 31, 32])
    @pytest.mark.parametrize("lo,first,count", [(2, 3, 40), (0, 1, 5), (10**6 - 3, 10**6 - 2, 6)])
    def test_closed_form_is_the_killed_block(self, lo, first, count, steps):
        # with hi past every row's reach no image of hi reaches a cell and
        # nothing is absorbed there: the interval law is the half-line law
        # bit for bit
        hi = first + count + steps
        sites = np.arange(first, first + count)
        block = cw._absorb_law(sites, lo, hi, steps)
        assert np.all(block[:, -1] == 0.0)
        assert np.array_equal(block, cw._absorb_law(sites, lo, None, steps))

    def test_full_block_against_reflection(self):
        # 32 steps with no upper bound: a surviving path from s to k has
        # probability k/(s 2^b), and the reflection principle counts the
        # paths that avoid lo; the absorbed mass is lo/s times the simple
        # walk's P[S_b <= lo - s] + P[S_b < lo - s]
        b, lo = cw._BLOCK, 2
        law = cw._absorb_law(np.arange(3, 60), lo, None, b)
        for r in range(57):
            s = 3 + r
            for j in range(b + 1):
                k = s - b + 2 * j
                jr = j + s - lo  # up-steps from the reflected start 2lo - s
                paths = math.comb(b, j) - (math.comb(b, jr) if jr <= b else 0)
                assert law[r, 1 + j] == (k * paths / (s << b) if k > lo else 0.0)
            # S_b = 2J - b for J ~ Binomial(b, 1/2) up-steps
            below = sum(math.comb(b, i) * ((2 * i - b <= lo - s) + (2 * i - b < lo - s))
                        for i in range(b + 1))
            assert law[r, 0] == lo * below / (s << b)
        assert np.all(law[:, -1] == 0.0)

    #: (lo, rows): rows next to lo, and rows L + 1 and 3L past it, which
    #: reach it only just or not at all
    LONG_STARTS = [(0, lambda L: [1, 2, 3, L + 1, 3 * L]),
                   (2, lambda L: [3, 4, 7, L + 3, 3 * L]),
                   (10**6 - 3, lambda L: [10**6 - 2, 10**6 - 1, 10**6 + L - 2, 10**6 + 3 * L])]

    @pytest.mark.parametrize("L", [33, 100, 500, 2000])
    @pytest.mark.parametrize("lo,starts", LONG_STARTS, ids=["lo=0", "lo=2", "lo far"])
    def test_long_half_line_law(self, lo, starts, L):
        # the closed form of a whole stretch against L steps of float
        # propagation (_killed_law). The closed form is correctly rounded;
        # each propagated cell is a sum of nonnegative products of rounded
        # step probabilities, 2 eps of relative error a step, and its
        # absorbed mass adds one rounding a step: within 3 L eps relative,
        # and within the smallest normal double where the mass underflows
        sites = np.array(starts(L))
        law = cw._absorb_law(sites, lo, None, L)
        assert law.shape == (sites.size, L + 3)
        for row, x in zip(law, sites):
            at_lo, _, ref = _killed_law(int(x), lo, None, L)
            y = x - L + 2 * np.arange(L + 1)
            want = np.where(y > lo, ref[np.clip(y - lo, 0, ref.size - 1)], 0.0)
            tol = 3 * L * self.eps
            assert abs(row[0] - at_lo) <= tol * at_lo + np.finfo(float).tiny
            assert np.all(np.abs(row[1:-1] - want) <= tol * want + np.finfo(float).tiny)
            assert row[-1] == 0.0
            assert row[0] == 0.0 if lo == 0 or x - lo > L else row[0] > 0
        # the cells are correctly rounded, so a row's sum is 1 to their count
        assert np.max(np.abs(law.sum(axis=1) - 1)) <= (L + 3) * self.eps

    @pytest.mark.parametrize("lo,hi,steps", [(2, 12, 5), (2, None, cw._BLOCK),
                                             (0, None, 1), (4, 7, 3)])
    def test_search_edges(self, lo, hi, steps):
        # u = 0 and the largest u below 1 take each row's first and last
        # outcome of positive mass; without hi the last is j = steps, never
        # absorption at hi
        first = lo + 1
        count = (hi if hi is not None else lo + 60) - first
        law = cw._absorb_law(np.arange(first, first + count), lo, hi, steps)
        cdf, guide, k, outcome = cw._search_table(law)
        rows = np.arange(count, dtype=np.intp)
        for u0, pick in ((0.0, 0), (np.nextafter(1.0, 0.0), -1)):
            u = np.full(count, u0)
            pos = np.empty(count, dtype=np.intp)
            got = outcome[cw._search(cdf, guide, k, rows, u, pos, np.empty(count),
                                     np.empty(count, dtype=np.intp))]
            want = [np.flatnonzero(row > 0)[pick] for row in law]
            assert np.array_equal(got, want)
            if hi is None and pick == -1:
                assert np.all(got == steps + 1)

    def test_search_inverts_the_law(self):
        # a uniform grid of u reproduces every row's law to the grid step
        law = cw._absorb_law(np.arange(3, 12), 2, 12, 5)
        cdf, guide, k, outcome = cw._search_table(law)
        grid = (np.arange(2**16) + 0.5) / 2**16
        for r in range(9):
            rows = np.full(grid.size, r, dtype=np.intp)
            pos = np.empty(grid.size, dtype=np.intp)
            got = outcome[cw._search(cdf, guide, k, rows, grid, pos, np.empty(grid.size),
                                     np.empty(grid.size, dtype=np.intp))]
            freq = np.bincount(got, minlength=law.shape[1]) / grid.size
            assert np.max(np.abs(freq - law[r])) <= 1 / 2**16


def _guided(table, rows, u):
    """Outcome index of each (row, u) by the table's guided search."""
    cdf, guide, k = table[:3]
    pos = np.empty(len(u), dtype=np.intp)
    return cw._search(cdf, guide, k, np.asarray(rows, dtype=np.intp), u, pos,
                      np.empty(len(u)), np.empty(len(u), dtype=np.intp))


def _oracle_uniforms(row, k):
    """Every finite running sum of the row and every bin edge b/k, each with
    both neighbours, 0, the largest double below 1: the u in [0, 1) where a
    guided search can go wrong."""
    edges = np.concatenate([row[np.isfinite(row)], np.arange(k) / k])
    u = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
                        [0.0, np.nextafter(1.0, 0.0)]])
    return u[(u >= 0) & (u < 1)]


def _assert_guided_is_searchsorted(table, uniforms):
    """The guide and the search of a table against np.searchsorted, row by
    row, at the row's own edge cases and at the shared uniforms."""
    cdf, guide, k = table[:3]
    rows = cdf.reshape(-1, k)
    assert np.array_equal(guide.reshape(-1, k) - k * np.arange(len(rows))[:, None],
                          [np.searchsorted(row, np.arange(k) / k, side="right")
                           for row in rows])
    for r, row in enumerate(rows):
        u = np.concatenate([_oracle_uniforms(row, k), uniforms])
        assert np.array_equal(_guided(table, np.full(u.size, r), u),
                              np.searchsorted(row, u, side="right"))


class TestGuidedSearch:
    """_search's guide and binary search against np.searchsorted on the
    tables the walks build."""

    #: seeded uniforms tried in every row of every table
    UNIFORMS = RngState(2201).generator().random(10**5)

    @staticmethod
    def ring_table(n, x0, s0, visit_site, stay_in):
        """The search table of the law that the ring walk of n sites from x0
        at alpha = 1 draws with s0 steps to go (None: its first law)."""
        t = rk.ring_time_scale(n, 1.0)
        for steps, law, draws in rk._block_laws(rk.SurvivalKernel(n, t), x0, t, visit_site,
                                                stay_in):
            if s0 is None or t - steps * draws < s0:
                return cw._search_table(law)
            t -= steps * draws

    @pytest.mark.parametrize("law", [cw._absorb_law(np.arange(3, 12), 2, 12, 5),
                                     np.array([[0.25, 0.0, 0.5, 0.25]]),
                                     np.array([[1.0]])], ids=["rows", "one row", "one cell"])
    def test_no_rows_reads_row_zero(self, law):
        # row None: every walker reads row 0, as a row of zeros does, where
        # the guide and the binary search put it
        table = cw._search_table(law)
        cdf, guide, k = table[:3]
        u = np.concatenate([_oracle_uniforms(cdf[:k], k), self.UNIFORMS])
        got = cw._search(cdf, guide, k, None, u, np.empty(u.size, dtype=np.intp),
                         np.empty(u.size), np.empty(u.size, dtype=np.intp))
        assert np.array_equal(got, _guided(table, np.zeros(u.size), u))
        assert np.array_equal(got, np.searchsorted(cdf[:k], u, side="right"))

    #: the K of each walk table of test_ring_tables, as measured
    RING_TABLE_K = {(48, None): 2048, (48, 1000): 2048, (80, 3000): 128, (40, 700): 64}

    @pytest.mark.parametrize("n,s0,visit_site,stay_in", [
        (48, None, 2, None),  # check 08: the shared power of 4 blocks past R
        (48, 1000, 2, None),  # and a later super-block, before the settled row
        (80, 3000, None, (2, 79)),  # the vacant walk of the benchmark: 256 blocks
        (40, 700, None, (2, 39)),  # check 07b: 32 blocks
    ])
    def test_ring_tables(self, n, s0, visit_site, stay_in):
        table = self.ring_table(n, n // 2, s0, visit_site, stay_in)
        assert table[2] == self.RING_TABLE_K[n, s0]
        _assert_guided_is_searchsorted(table, self.UNIFORMS)

    #: sha256 of the search tables of every law of the ring walks of the
    #: benchmark's ring_walk sweep, (n, x0, visit site, bounds), every law
    #: an h-transformed killed law of a super-block, by end row
    WALK_TABLES_SHA256 = {
        (40, 20, None, (2, 39)):
            "332bcb860f843f8005648e201969ea659a1d4b19746ad869a3786699533184a2",
        (48, 24, 2, None):
            "f061fd9c7a599ee34ccd3f3d3958f482812a80a62bf7bca8c16abf45511a8776",
        (80, 40, None, (2, 79)):
            "2f5da64cd36f69670f4c7db5215f33962b232d2526ae07f0f0ed54b6346265f2",
    }

    @pytest.mark.parametrize("walk", sorted(WALK_TABLES_SHA256, key=str), ids=str)
    def test_walk_tables_keep_their_bits(self, walk):
        n, x0, site, bounds = walk
        t = rk.ring_time_scale(n, 1.0)
        digest = hashlib.sha256()
        for _, law, _ in rk._block_laws(rk.SurvivalKernel(n, t), x0, t, site, bounds):
            for part in cw._search_table(law):
                digest.update(np.asarray(part).tobytes())
        assert digest.hexdigest() == self.WALK_TABLES_SHA256[walk]

    def test_build_peak_memory(self):
        # check 08's 128-step shared power: 25 rows of K = 2048 running
        # sums. The build holds the table it returns (cdf, guide and
        # coordinates, 0.87 MB) and one slice of slots, a float, an integer
        # and a count array of _SLOT_CELLS cells: 1.14 MB over the law, where
        # the slots of the whole table at once took 1.70 MB
        n = 48
        t = rk.ring_time_scale(n, 1.0)
        steps, law, _ = next(rk._block_laws(rk.SurvivalKernel(n, t), n // 2, t, 2, None))
        assert steps == 128
        tracemalloc.start()
        try:
            table = cw._search_table(law)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        cdf, _, k = table[:3]
        assert k == 2048 and cdf.size == 25 * k
        held = sum(np.asarray(part).nbytes for part in table)
        assert peak <= held + 3 * 8 * cw._SLOT_CELLS

    def test_absorb_table(self):
        # check 13's hit-before walk: absorbed at 2 and 12, full blocks
        table = cw._search_table(cw._absorb_law(np.arange(3, 12), 2, 12, cw._BLOCK))
        _assert_guided_is_searchsorted(table, self.UNIFORMS)

    def test_one_outcome(self):
        # K = 1: every row, with or without mass, takes outcome 0
        table = cw._search_table(np.array([[1.0], [0.0], [1.0]]))
        assert table[2] == 1
        _assert_guided_is_searchsorted(table, self.UNIFORMS)
        u = self.UNIFORMS[:3]
        assert np.array_equal(_guided(table, [0, 1, 2], u), [0, 0, 0])

    def test_no_mass_raises(self):
        # a law with no cell of positive mass has no outcome to draw
        for law in (np.zeros((3, 4)), np.zeros((2, 0)), np.zeros((1, 3, 2))):
            with pytest.raises(ValueError, match="no cell of positive mass"):
                cw._search_table(law)

    def test_all_mass_on_one_outcome(self):
        # a row with all its mass on one outcome takes it for every u, even
        # where the other rows' outcomes are many
        law = RngState(2202).generator().random((3, 37))
        law /= law.sum(axis=1, keepdims=True)
        law[1] = 0.0
        law[1, 20] = 1.0
        table = cw._search_table(law)
        _assert_guided_is_searchsorted(table, self.UNIFORMS)
        got = _guided(table, np.ones(self.UNIFORMS.size), self.UNIFORMS)
        assert np.all(got == 20)


class TestAbsorbOracle:
    """_absorb against the exact law of the absorbed walk and against the
    per-step loop."""

    M = 20000

    @staticmethod
    def assert_law(hits, pos, M, start, lo, hi, steps):
        """Hits, absorptions at hi and the survivors' histogram of M walkers
        against the exact law: every cell with M p >= 25 and the pooled rest
        within Z_MAX."""
        at_lo, at_hi, law = _killed_law(start, lo, hi, steps)
        assert abs(_binomial_z(hits, M, at_lo)) <= Z_MAX
        if hi is None:
            assert hits + pos.size == M
        else:
            assert abs(_binomial_z(M - hits - pos.size, M, at_hi)) <= Z_MAX
        assert pos.dtype == np.int64 and np.all(pos > lo)
        assert hi is None or np.all(pos < hi)
        counts = np.bincount(pos - lo, minlength=law.size)
        assert counts.size == law.size
        big = M * law >= 25
        for c, p in zip(counts[big], law[big]):
            assert abs(_binomial_z(c, M, p)) <= Z_MAX
        assert abs(_binomial_z(counts[~big].sum(), M, law[~big].sum())) <= Z_MAX
        return big.sum()

    @pytest.mark.parametrize("y,x", [(5, 2), (9, 3)])
    def test_hit_prob_horizon(self, y, x):
        # estimate_hit_prob's walk (13d's inputs first) at M = 4e5
        M = 400_000
        hits, pos = cw._absorb(RngState(7, 102).generator(), np.full(M, y), x,
                               None, cw.ESTIMATOR_HORIZON)
        assert self.assert_law(hits, pos, M, y, x, None, cw.ESTIMATOR_HORIZON) >= 50

    @pytest.mark.parametrize("start,lo,hi,steps", [
        (5, 2, 12, 100),  # 3 blocks of 32 and one of 4, both bounds
        (100, 2, None, 300),  # walkers leave the first rows upward
        (40, 2, 41, 1000),  # and downward to lo, the rows capped below hi
    ])
    def test_against_killed_propagation(self, start, lo, hi, steps):
        M = 400_000
        hits, pos = cw._absorb(RngState(11, 5).generator(), np.full(M, start),
                               lo, hi, steps)
        assert self.assert_law(hits, pos, M, start, lo, hi, steps) >= 5

    @pytest.mark.parametrize("x", [1, 3])
    def test_escape_legs(self, x):
        # the first leg is one 1-step block: absorbed at x - 1 with
        # probability 1 - (x+1)/(2x), every survivor at x + 1 (from 1 the
        # walk steps up surely); the survivors then run to the horizon
        gen = RngState(8, 103).generator()
        hits, pos = cw._absorb(gen, np.full(self.M, x), x - 1, None, 1)
        assert np.all(pos == x + 1) and hits + pos.size == self.M
        if x == 1:
            assert hits == 0
        else:
            assert abs(_binomial_z(hits, self.M, cw.step_down_prob(x))) <= Z_MAX
        left = pos.size
        hits, pos = cw._absorb(gen, pos, x, None, cw.ESTIMATOR_HORIZON)
        self.assert_law(hits, pos, left, x + 1, x, None, cw.ESTIMATOR_HORIZON)

    def test_every_walker_absorbed(self):
        # from 2 with lo = 1 and hi = 3, the first step absorbs everyone, so
        # the walk draws one uniform per walker and no more
        gen = RngState(7, 102).generator()
        hits, pos = cw._absorb(gen, np.full(self.M, 2), 1, 3, 50)
        assert pos.size == 0
        assert abs(_binomial_z(hits, self.M, 0.25)) <= Z_MAX
        ref = RngState(7, 102).generator()
        ref.random(self.M)
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_hit_before_to_absorption(self):
        # runs to absorption: the block walk and the per-step loop agree on
        # the hit-before law (two independent samples)
        gens = [RngState(7, s).generator() for s in (1, 2)]
        (h1, p1), (h2, p2) = (
            absorb(g, np.full(self.M, 5), 2, 12, cw.ABSORPTION_STEP_CAP)
            for absorb, g in zip((cw._absorb, _absorb_loop), gens))
        assert p1.size == p2.size == 0
        p = (h1 + h2) / (2 * self.M)
        assert abs(h1 - h2) / math.sqrt(2 * self.M * p * (1 - p)) <= Z_MAX
        assert abs(_binomial_z(h1, self.M, cw.hit_before_prob(5, 2, 12))) <= Z_MAX

    def test_survivors_in_input_order(self):
        # far starts 70 apart in a scrambled order among 20 walkers next to
        # lo, some of which are absorbed: a walker moves at most 32 in one
        # block, so the survivors are a subsequence of the starts
        sites = 3 + 70 * ((np.arange(100) * 37) % 100)
        starts = np.where(np.arange(100) % 5 == 0, 3, sites)
        hits, pos = cw._absorb(RngState(7).generator(), starts, 2, None, cw._BLOCK)
        assert hits > 0 and hits + pos.size == starts.size
        rest = iter(starts)
        assert all(any(abs(p - s) <= cw._BLOCK for s in rest) for p in pos)

    def test_one_uniform_per_live_walker_and_block(self):
        # a 33-step walk is the 32-step walk plus a 1-step block for its
        # survivors: it draws M + (survivors of the first block) uniforms
        start = np.full(self.M, 5)
        _, pos = cw._absorb(RngState(7, 1).generator(), start, 2, 12, cw._BLOCK)
        gen = RngState(7, 1).generator()
        cw._absorb(gen, start, 2, 12, cw._BLOCK + 1)
        ref = RngState(7, 1).generator()
        ref.random(self.M + pos.size)
        assert 0 < pos.size < self.M
        assert gen.bit_generator.state == ref.bit_generator.state

    def test_far_start(self):
        # the law has a row per occupied site, one here, so memory does not
        # grow with the start site
        start, lo, steps = 10**6, 10**6 - 3, 500
        tracemalloc.start()
        try:
            hits, pos = cw._absorb(RngState(7, 102).generator(),
                                   np.full(self.M, start), lo, None, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < hits < self.M and pos.size == self.M - hits
        assert peak < 4 * 2**20  # a table from site 0 alone is 8 MB
        at_lo, _, _ = _killed_law(start, lo, None, steps)
        assert abs(_binomial_z(hits, self.M, at_lo)) <= Z_MAX

    def test_rows_for_occupied_sites_only(self, monkeypatch):
        # 200 walkers 100 sites apart, 3..19,903: the one law has a row per
        # walker's site, not one per site between the lowest and the highest
        # (20,000 rows and 0.7 s of tables for one 32-step block). The build
        # holds the law (35 outcomes a row), its table (K = 64: running sums,
        # guide and one slice of slots) and the walkers' arrays, within 6
        # words a cell of the table
        built, law_of = [], cw._absorb_law

        def record(sites, lo, hi, steps):
            built.append((sites.tolist(), hi, steps))
            return law_of(sites, lo, hi, steps)

        monkeypatch.setattr(cw, "_absorb_law", record)
        starts = 3 + 100 * np.arange(200)
        gen = RngState(7).generator()
        tracemalloc.start()
        try:
            hits, pos = cw._absorb(gen, starts, 2, None, cw._BLOCK)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert built == [(starts.tolist(), None, cw._BLOCK)]
        assert peak <= 6 * 8 * starts.size * 64
        # one draw: only the walker at 3 can reach 2 in 32 steps, and every
        # survivor is within 32 of its start, in input order
        ref = RngState(7).generator()
        ref.random(starts.size)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert hits + pos.size == starts.size and hits <= 1
        assert np.all(np.abs(pos - starts[hits:]) <= cw._BLOCK)

    def test_one_draw_per_walker(self):
        # the estimators' walks each fit one law: estimate_hit_prob (13d)
        # draws one uniform per walker, and estimate_escape_prob (13e) one
        # more per walker that survives its first step
        M = 1000
        gen, ref = RngState(7, 102).generator(), RngState(7, 102).generator()
        cw._absorb(gen, np.full(M, 5), 2, None, cw.ESTIMATOR_HORIZON)
        ref.random(M)
        assert gen.bit_generator.state == ref.bit_generator.state
        gen, ref = RngState(7, 103).generator(), RngState(7, 103).generator()
        _, pos = cw._absorb(gen, np.full(M, 3), 2, None, 1)
        cw._absorb(gen, pos, 3, None, cw.ESTIMATOR_HORIZON)
        ref.random(M + pos.size)
        assert 0 < pos.size < M and gen.bit_generator.state == ref.bit_generator.state

    def test_stretches_split_by_cells(self, monkeypatch):
        # with room for 600 cells, walkers on 5 sites take stretches of the
        # most steps whose law, rows x (steps + 3) cells, fits them (at least
        # 1), and end in the exact law of the whole walk
        monkeypatch.setattr(cw, "_BATCH_CELLS", 600)
        built, law_of = [], cw._absorb_law

        def record(sites, lo, hi, steps):
            assert hi is None
            built.append((len(sites), steps))
            return law_of(sites, lo, hi, steps)

        monkeypatch.setattr(cw, "_absorb_law", record)
        M, steps, sites = 50_000, 300, (3, 5, 8, 13, 21)
        hits, pos = cw._absorb(RngState(11, 7).generator(), np.repeat(sites, M // 5), 2,
                               None, steps)
        def fit(rows, to_go):
            return min(to_go, max(1, 600 // rows - 3))

        assert len(built) >= 2 and built[0] == (5, fit(5, steps))
        for i, (rows, L) in enumerate(built):
            assert L == fit(rows, steps - sum(b[1] for b in built[:i]))
        assert sum(L for _, L in built) == steps
        # the survivors' histogram against the mixture of the starts' laws
        at_lo, law = 0.0, np.zeros(max(sites) + steps)
        for x in sites:
            a, _, row = _killed_law(x, 2, None, steps)
            at_lo += a / len(sites)
            law[:row.size] += row / len(sites)
        assert hits + pos.size == M
        assert abs(_binomial_z(hits, M, at_lo)) <= Z_MAX
        counts = np.bincount(pos - 2, minlength=law.size)
        big = M * law >= 25
        assert big.sum() >= 20
        for c, p in zip(counts[big], law[big]):
            assert abs(_binomial_z(c, M, p)) <= Z_MAX
        assert abs(_binomial_z(counts[~big].sum(), M, law[~big].sum())) <= Z_MAX

    def test_memory_independent_of_hi(self, monkeypatch):
        # a bound at 1e6 costs nothing: a row per site of (2, 1e6) would be
        # 512 MB
        monkeypatch.setattr(cw, "ABSORPTION_STEP_CAP", 200)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="within 200 steps"):
                cw.simulate_hit_before(5, 2, 10**6, 1000, RngState(5))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("starts,lo,hi", [
        ([5, 2], 2, None), ([5, 1], 2, None), ([3], 3, 12),
        ([5, 12], 2, 12), ([13], 2, 12)])
    def test_starts_outside_raise(self, starts, lo, hi):
        with pytest.raises(ValueError, match="strictly inside"):
            cw._absorb(RngState(7).generator(), np.array(starts), lo, hi, 10)

    def test_no_walkers(self):
        gen = RngState(7).generator()
        state = gen.bit_generator.state
        hits, pos = cw._absorb(gen, np.empty(0, dtype=np.int64), 2, None, 100)
        assert hits == 0 and pos.size == 0 and gen.bit_generator.state == state


class TestMonteCarloHelpers:
    M = 10**5

    def test_hit_before_mc(self):
        p = cw.hit_before_prob(5, 2, 12)
        est = cw.simulate_hit_before(5, 2, 12, self.M, RngState(5))
        assert abs(est - p) <= 4 * math.sqrt(p * (1 - p) / self.M)

    def test_hit_prob_mc(self):
        p = cw.hit_prob(5, 2)
        est = cw.estimate_hit_prob(5, 2, self.M, RngState(5))
        assert abs(est - p) <= 4 * math.sqrt(p * (1 - p) / self.M)

    def test_escape_prob_mc(self):
        p = cw.escape_prob(3)
        est = cw.estimate_escape_prob(3, self.M, RngState(5))
        assert abs(est - p) <= 4 * math.sqrt(p * (1 - p) / self.M)

    def test_return_stats(self):
        # ever-return probability from x0 is 1 - 1/(2 x0)
        frac = 1 - cw.estimate_escape_prob(4, self.M, RngState(5))
        p = 1 - cw.escape_prob(4)
        assert abs(frac - p) <= 4 * math.sqrt(p * (1 - p) / self.M)

    def test_absorption_step_cap(self, monkeypatch):
        monkeypatch.setattr(cw, "ABSORPTION_STEP_CAP", 3)
        with pytest.raises(RuntimeError, match="within 3 steps"):
            cw.simulate_hit_before(5, 2, 10**6, 100, RngState(5))

    @pytest.mark.parametrize("M", [0, -3])
    def test_replicate_count_validated(self, M):
        calls = [lambda: cw.simulate_hit_before(5, 2, 12, M, RngState(5)),
                 lambda: cw.estimate_hit_prob(5, 2, M, RngState(5)),
                 lambda: cw.estimate_escape_prob(3, M, RngState(5))]
        for call in calls:
            with pytest.raises(ValueError, match=f"got M={M}"):
                call()
