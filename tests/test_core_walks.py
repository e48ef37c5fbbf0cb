import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ri1d import core_walks as cw
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

    def test_asymptotic_value(self):
        _, asym = cw.endpoint_leq_prob(2, 10**4, 10)
        assert asym == pytest.approx(math.sqrt(2 / math.pi) * 1000 / (3 * 10**6),
                                     rel=1e-12)


def _absorb_loop(gen, pos, lo, hi, max_steps):
    """Reference absorption loop, with five new arrays and a compaction per
    step: the oracle for the in-place :func:`ri1d.core_walks._absorb`."""
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


class TestAbsorbOracle:
    """_absorb draws the same stream and returns the same walkers as the loop."""

    M = 20000

    @classmethod
    def both(cls, seed, legs):
        """Run the legs (start or None for the last survivors, lo, hi, steps)
        through both loops, each on its own generator from the same stream."""
        out = []
        for absorb in (cw._absorb, _absorb_loop):
            gen = RngState(seed, 102).generator()
            pos, hits = None, []
            for start, lo, hi, steps in legs:
                if start is not None:
                    pos = np.full(cls.M, start, dtype=np.int64)
                h, pos = absorb(gen, pos, lo, hi, steps)
                hits.append(h)
            out.append((hits, pos, gen.random()))
        return out

    def assert_same(self, seed, legs):
        (hits, pos, nxt), (hits_o, pos_o, nxt_o) = self.both(seed, legs)
        assert hits == hits_o
        assert pos.dtype == pos_o.dtype and np.array_equal(pos, pos_o)
        assert nxt == nxt_o  # the generator is left in the same state
        return hits, pos

    @pytest.mark.parametrize("y,x", [(5, 2), (9, 3)])
    def test_hit_prob_horizon(self, y, x):
        _, pos = self.assert_same(7, [(y, x, None, cw.ESTIMATOR_HORIZON)])
        assert pos.size > 0

    def test_hit_before_to_absorption(self):
        _, pos = self.assert_same(7, [(5, 2, 12, cw.ABSORPTION_STEP_CAP)])
        assert pos.size == 0

    @pytest.mark.parametrize("x", [1, 3])
    def test_escape_legs(self, x):
        self.assert_same(8, [(x, x - 1, None, 1),
                             (None, x, None, cw.ESTIMATOR_HORIZON)])

    def test_far_start(self):
        # the step table spans the sites reachable within the horizon, so its
        # size does not grow with the start site
        start = 10**6
        tracemalloc.start()
        try:
            hits, pos = self.assert_same(7, [(start, start - 3, None, 500)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0 < hits[0] < self.M and pos.size > 0
        assert peak < 4 * 2**20  # both loops; a table from site 0 alone is 8 MB

    def test_every_walker_absorbed(self):
        # from 2 with lo = 1 and hi = 3, the first step absorbs everyone
        hits, pos = self.assert_same(7, [(2, 1, 3, 50)])
        assert pos.size == 0 and 0 < hits[0] < self.M


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
