"""Simple random walk on the positive integers conditioned to never hit 0.

The conditioned walk steps from x to x+1 with probability (x+1)/(2x) and to
x-1 otherwise; 1/x along the stopped trajectory is a martingale, which yields
closed forms for hitting and escape probabilities. The module also provides
reflection-principle path counting for the walk avoiding the origin and a
brute-force enumeration oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .rngs import RngState

#: Exhaustive enumeration budget: 2**delta step sequences.
ENUMERATION_MAX_STEPS = 24

#: Safety cap on total steps in absorption simulations (guards against RNG
#: pathology; absorption is a.s. finite so this never triggers in practice).
ABSORPTION_STEP_CAP = 10**9

#: Steps after which the unbiased estimators stop walking and add the exact
#: martingale residual of each walker still active.
ESTIMATOR_HORIZON = 2000


@dataclass(frozen=True)
class WalkPath:
    """A finite trajectory of the conditioned walk.

    ``positions`` holds the m+1 visited sites including the start; consecutive
    sites differ by exactly 1 and every site is >= 1.
    """

    positions: tuple[int, ...]

    def __post_init__(self):
        if len(self.positions) < 1:
            raise ValueError("path must contain at least the start position")
        if any(p < 1 for p in self.positions):
            raise ValueError("conditioned walk never visits nonpositive sites")
        for a, b in zip(self.positions, self.positions[1:]):
            if abs(b - a) != 1:
                raise ValueError("consecutive positions must differ by exactly 1")

    @property
    def start(self) -> int:
        return self.positions[0]

    @property
    def final(self) -> int:
        return self.positions[-1]

    @property
    def n_steps(self) -> int:
        return len(self.positions) - 1


def step_up_prob(x: int) -> float:
    """Probability that the conditioned walk steps from x to x+1: (x+1)/(2x)."""
    if x <= 0:
        raise ValueError(f"site must be >= 1, got {x}")
    return (x + 1) / (2 * x)


def step_down_prob(x: int) -> float:
    """Complement of :func:`step_up_prob`; exactly 1 - step_up_prob(x)."""
    return 1.0 - step_up_prob(x)


def hit_before_prob(y: int, x: int, N: int) -> float:
    """P[hit x before N] for the conditioned walk from y, 1 < x < y < N."""
    if not (1 < x < y < N):
        raise ValueError(f"need 1 < x < y < N, got x={x}, y={y}, N={N}")
    return x * (N - y) / (y * (N - x))


def hit_prob(y: int, x: int) -> float:
    """P[ever hit x] for the conditioned walk from y >= x >= 1: x/y.

    x == y returns 1 by the usual convention (the hitting time of the current
    site is 0).
    """
    if x < 1 or y < x:
        raise ValueError(f"need 1 <= x <= y, got x={x}, y={y}")
    return x / y


def escape_prob(x: int) -> float:
    """Probability of never returning to x after time 0: 1/(2x)."""
    if x <= 0:
        raise ValueError(f"site must be >= 1, got {x}")
    return 1 / (2 * x)


def martingale_defect(x) -> float:
    """|p_up/(x+1) + p_down/(x-1) - 1/x| for the 1/x martingale, x >= 2.

    Zero in exact arithmetic; in floats it stays below 1e-14/x. Accepts a
    scalar or an integer array.
    """
    xa = np.asarray(x, dtype=np.float64)
    if np.any(xa <= 1):
        raise ValueError("martingale check requires x >= 2 (stopped at 1)")
    p_up = (xa + 1) / (2 * xa)
    p_down = 1.0 - p_up
    defect = np.abs(p_up / (xa + 1) + p_down / (xa - 1) - 1 / xa)
    return float(defect) if np.isscalar(x) or np.ndim(x) == 0 else defect


def count_paths(x: int, delta: int, k: int) -> int:
    """Number of length-delta nearest-neighbour paths x -> k avoiding 0.

    Reflection principle: C(delta, (delta+k-x)/2) - C(delta, (delta-x-k)/2),
    with either binomial read as 0 when its lower index is out of range.
    Returns 0 for parity mismatches and unreachable endpoints. Exact integer
    arithmetic for every delta (Python integers do not overflow, so no
    floating crossover is needed).
    """
    if x < 1 or k < 1 or delta < 0:
        raise ValueError(f"need x >= 1, k >= 1, delta >= 0, got x={x}, k={k}, delta={delta}")
    if (delta + k - x) % 2 != 0 or abs(k - x) > delta:
        return 0
    first = math.comb(delta, (delta + k - x) // 2)
    low = (delta - x - k) // 2
    second = math.comb(delta, low) if low >= 0 else 0
    return first - second


def enumerate_paths(x: int, delta: int) -> np.ndarray:
    """Brute-force oracle for :func:`count_paths` (all 2**delta step sequences).

    Returns the int64 vector N[0..x+delta]: N[k] is the number of
    length-delta nearest-neighbour paths from x that end at k and never
    touch 0, so N[0] = 0 and N[k] = count_paths(x, delta, k) for k >= 1.
    """
    if x < 1 or delta < 0:
        raise ValueError(f"need x >= 1, delta >= 0, got x={x}, delta={delta}")
    if delta > ENUMERATION_MAX_STEPS:
        raise ValueError(f"enumeration budget is delta <= {ENUMERATION_MAX_STEPS}, got {delta}")
    counts = np.zeros(x + delta + 1, dtype=np.int64)
    if delta == 0:
        counts[x] = 1
        return counts
    total = 1 << delta
    chunk = min(total, 1 << 20)
    # sequence i takes an up-step at step j iff bit j of i is set; its
    # position and running minimum are int16 columns, stepped one j at a time
    pos = np.empty(chunk, dtype=np.int16)
    low = np.empty(chunk, dtype=np.int16)
    for lo in range(0, total, chunk):
        idx = np.arange(lo, lo + chunk, dtype=np.uint32)
        pos.fill(x)
        low.fill(x)
        for j in range(delta):
            up = (idx >> j) & 1
            pos += up
            pos += up
            pos -= 1
            np.minimum(low, pos, out=low)
        counts += np.bincount(pos[low >= 1], minlength=counts.size)
    return counts


def endpoint_leq_prob(x: int, delta: int, y: int) -> tuple[float, float]:
    """P[X_delta <= y] for the conditioned walk from x: (exact, asymptotic).

    The exact value sums k * N_k / (x * 2^delta) over endpoints k <= y with
    N_k from :func:`count_paths`; the sum is kept in exact integer arithmetic
    and divided once at the end, so no intermediate overflow or underflow is
    possible. The asymptotic companion is sqrt(2/pi) * y^3 / (3 delta^{3/2}),
    valid as y -> infinity with y^2 = o(delta). At fixed y the local limit
    theorem gives sqrt(2/pi) * y*(y*+1)(y*+2) / (3 delta^{3/2}) instead, where
    y* is the largest k <= y with k = x + delta (mod 2); the smooth form
    misses it by the lattice factor y*(y*+1)(y*+2)/y^3, an error of about 3/y.
    """
    if x < 1 or y < 1 or delta < 1:
        raise ValueError(f"need x >= 1, y >= 1, delta >= 1, got x={x}, y={y}, delta={delta}")
    numerator = 0
    for k in range(1, min(y, x + delta) + 1):
        nk = count_paths(x, delta, k)
        if nk:
            numerator += k * nk
    exact = float(Fraction(numerator, x << delta))
    asym = math.sqrt(2 / math.pi) * y**3 / (3 * delta**1.5)
    return exact, asym


# -- Monte Carlo helpers (vectorized over replicates) -------------------------

def _absorb(gen: np.random.Generator, pos: np.ndarray, lo: int, hi: int | None,
            max_steps: int):
    """Step conditioned walkers until they are absorbed at lo or hi.

    The walkers start strictly inside (lo, hi); hi=None absorbs at lo only.
    Stops after max_steps steps or once every walker is absorbed, drawing
    one uniform per active walker and step and nothing for absorbed ones.
    Returns (number absorbed at lo, positions of the walkers still active,
    in their input order).

    Walkers step in place on preallocated buffers, without rebuilding the
    walker array each step, and are compacted only in a step where one of
    them reached lo or hi. They are held as offsets q = p - base from the
    lowest site they can reach, and the up-step probability (s+1)/(2s) is
    read with np.take from a table over the sites they can reach in
    max_steps, so the table's size depends on the horizon and the spread of
    the starts, not on where they start.
    """
    p = np.array(pos, dtype=np.int64)
    if not p.size:
        return 0, p
    base = max(lo, int(p.min()) - max_steps)
    top = int(p.max()) + max_steps
    if hi is not None:
        top = min(top, hi)
    sites = np.arange(base, top + 1, dtype=np.int64)
    # site 0 (= lo) is never read: walkers there are compacted first
    p_up = (sites + 1) / (2 * np.maximum(sites, 1))
    q = p - base
    q_lo = lo - base
    q_hi = None if hi is None else hi - base
    u = np.empty(q.size)
    thr = np.empty(q.size)
    up = np.empty(q.size, dtype=bool)
    hits = 0
    for _ in range(max_steps):
        k = q.size
        if not k:
            break
        gen.random(out=u[:k])
        np.take(p_up, q, out=thr[:k])
        np.less(u[:k], thr[:k], out=up[:k])
        q += up[:k]  # +1 for an up-step, -1 for a down-step
        q += up[:k]
        q -= 1
        if q.min() == q_lo or (q_hi is not None and q.max() == q_hi):
            done = q == q_lo
            hits += int(np.count_nonzero(done))
            if q_hi is not None:
                done |= q == q_hi
            q = q[~done]
    return hits, q + base


def _walkers(start: int, M: int) -> np.ndarray:
    """Positions of M >= 1 walkers at ``start``; M < 1 raises ValueError."""
    if M < 1:
        raise ValueError(f"need at least one replicate, got M={M}")
    return np.full(M, start, dtype=np.int64)


def simulate_hit_before(y: int, x: int, N: int, M: int, rng: RngState) -> float:
    """Empirical P[hit x before N] from M conditioned chains run to absorption."""
    if not (1 < x < y < N):
        raise ValueError(f"need 1 < x < y < N, got x={x}, y={y}, N={N}")
    hits, active = _absorb(rng.generator(), _walkers(y, M), x, N,
                           ABSORPTION_STEP_CAP)
    if active.size:
        raise RuntimeError(
            f"absorption did not occur within {ABSORPTION_STEP_CAP} steps "
            f"({active.size} walkers still active); suspect RNG pathology")
    return hits / M


def estimate_hit_prob(y: int, x: int, M: int, rng: RngState) -> float:
    """Unbiased MC estimate of P[ever hit x] from y > x >= 1.

    Walkers not absorbed within ESTIMATOR_HORIZON steps contribute the exact
    residual x/X_horizon, justified by optional stopping of the 1/X martingale
    (the martingale identity itself is checked to 1e-14 elsewhere), so the
    truncation introduces no bias.
    """
    if not (1 <= x < y):
        raise ValueError(f"need 1 <= x < y, got x={x}, y={y}")
    hits, pos = _absorb(rng.generator(), _walkers(y, M), x, None,
                        ESTIMATOR_HORIZON)
    return (hits + float(np.sum(x / pos))) / M


def estimate_escape_prob(x: int, M: int, rng: RngState) -> float:
    """Unbiased MC estimate of the no-return probability 1/(2x) from x.

    Same truncation correction as :func:`estimate_hit_prob`: a walker still
    alive at the horizon escapes with exact probability 1 - x/X_horizon.
    """
    if x < 1:
        raise ValueError(f"site must be >= 1, got {x}")
    gen = rng.generator()
    # walkers that step down to x-1 return to x almost surely (positive walk
    # below x must cross it); resolve them after the first step
    _, pos = _absorb(gen, _walkers(x, M), x - 1, None, 1)
    _, pos = _absorb(gen, pos, x, None, ESTIMATOR_HORIZON)
    return float(np.sum(1.0 - x / pos)) / M
