"""Simple random walk on the positive integers conditioned to never hit 0.

The conditioned walk steps from x to x+1 with probability (x+1)/(2x) and to
x-1 otherwise; 1/x along the stopped trajectory is a martingale, which yields
closed forms for hitting and escape probabilities. The module also provides
reflection-principle path counting for the walk avoiding the origin and a
brute-force enumeration oracle for it. Its Monte Carlo estimators run the
walk absorbed at one or two sites. The walk is the Doob h-transform, h(x) =
x, of the simple walk killed at those sites, so the law of any stretch of
steps is the killed law times y/x from x to y, and lo/x and hi/x into the
sinks. One closed form gives that law for any number of steps: the killed
path counts by the method of images (the reflection principle at one or two
barriers), and the absorbed counts from conservation and the stopped walk's
martingale, exact integers divided once (:func:`_absorb_law`). Absorbed at
lo alone, the walk takes as many steps as one law's cells afford in one
draw per walker, usually all of them; absorbed at lo and hi, it walks in
blocks of 32 steps. Each walker's outcome is drawn by inverse CDF from its
row of the law. The inverse-CDF table and its search (a guide table that
places most walkers with one probe, and a binary search for the rest) also
serve the conditioned ring walk and draw the interlacement samplers' small
negative binomials.
"""

from __future__ import annotations

import math
import operator
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


def enumerate_paths(x, delta: int) -> np.ndarray:
    """Brute-force oracle for :func:`count_paths` (all 2**delta step sequences).

    Returns the int64 vector N[0..x+delta]: N[k] is the number of
    length-delta nearest-neighbour paths from x that end at k and never
    touch 0, so N[0] = 0 and N[k] = count_paths(x, delta, k) for k >= 1.
    x may be an array of starts: row i of the result is then the vector of
    start x[i], padded with zeros to the length max(x) + delta + 1.

    The sequences are walked once, whatever the starts: each keeps its end
    offset and its running minimum, and the paths from x are the sequences
    whose minimum is at least 1 - x, ending at x plus the offset.
    """
    starts = np.atleast_1d(np.asarray(x, dtype=np.int64))
    if starts.size == 0 or starts.min() < 1 or delta < 0:
        raise ValueError(f"need x >= 1, delta >= 0, got x={x}, delta={delta}")
    if delta > ENUMERATION_MAX_STEPS:
        raise ValueError(f"enumeration budget is delta <= {ENUMERATION_MAX_STEPS}, got {delta}")
    counts = np.zeros((starts.size, int(starts.max()) + delta + 1), dtype=np.int64)
    total = 1 << delta
    chunk = min(total, 1 << 20)
    # sequence i takes an up-step at step j iff bit j of i is set; its end
    # offset and running minimum are int16 columns, stepped one j at a time
    end = np.empty(chunk, dtype=np.int16)
    low = np.empty(chunk, dtype=np.int16)
    for lo in range(0, total, chunk):
        idx = np.arange(lo, lo + chunk, dtype=np.uint32)
        end.fill(0)
        low.fill(0)
        for j in range(delta):
            up = (idx >> j) & 1
            end += up
            end += up
            end -= 1
            np.minimum(low, end, out=low)
        for row, start in zip(counts, starts):
            row += np.bincount(end[low >= 1 - start] + start, minlength=row.size)
    return counts[0] if np.ndim(x) == 0 else counts


def endpoint_leq_prob(x: int, delta: int, y: int) -> tuple[float, float]:
    """P[X_delta <= y] for the conditioned walk from x: (exact, asymptotic).

    The exact value sums k * N_k / (x * 2^delta) over endpoints k <= y with
    N_k the :func:`count_paths` count C(delta, m) - C(delta, m - k), m =
    (delta + k - x)/2; the sum is kept in exact integer arithmetic and
    divided once at the end, so no intermediate overflow or underflow is
    possible. Every binomial index it reads lies in one window of about y
    indices, so one math.comb at the window's foot and exact integer ratio
    steps C(delta, i+1) = C(delta, i)(delta - i)/(i + 1) give them all. The
    asymptotic companion is sqrt(2/pi) * y^3 / (3 delta^{3/2}),
    valid as y -> infinity with y^2 = o(delta). At fixed y the local limit
    theorem gives sqrt(2/pi) * y*(y*+1)(y*+2) / (3 delta^{3/2}) instead, where
    y* is the largest k <= y with k = x + delta (mod 2); the smooth form
    misses it by the lattice factor y*(y*+1)(y*+2)/y^3, an error of about 3/y.
    """
    if x < 1 or y < 1 or delta < 1:
        raise ValueError(f"need x >= 1, y >= 1, delta >= 1, got x={x}, y={y}, delta={delta}")
    # the reachable endpoints k <= y: k = x + delta (mod 2), |k - x| <= delta
    k_lo = max(1, x - delta)
    k_lo += (k_lo + x + delta) % 2
    k_hi = min(y, x + delta)
    k_hi -= (k_hi + x + delta) % 2
    numerator = 0
    if k_lo <= k_hi:
        foot = max(0, (delta - x - k_hi) // 2)  # the lowest m - k >= 0
        binom = [math.comb(delta, foot)]
        for i in range(foot, (delta + k_hi - x) // 2):
            binom.append(binom[-1] * (delta - i) // (i + 1))
        for k in range(k_lo, k_hi + 1, 2):
            m = (delta + k - x) // 2
            numerator += k * (binom[m - foot] - (binom[m - k - foot] if m >= k else 0))
    exact = float(Fraction(numerator, x << delta))
    asym = math.sqrt(2 / math.pi) * y**3 / (3 * delta**1.5)
    return exact, asym


# -- Monte Carlo helpers (vectorized over replicates) -------------------------

#: Steps per block: the ring walk's exact killed law K_32, and the stretch
#: of the walk absorbed at two sites, which draws one uniform per walker and
#: block.
_BLOCK = 32

#: Cells (8-byte words) of one law that a walk may hold with its search
#: table: the ring walk's doubling stops where twice the cells a power can
#: reach would pass it, and the walk absorbed at one site takes the longest
#: stretch whose law fits it. 2 MiB.
_BATCH_CELLS = 1 << 18


#: Cells of rows per slice of a search table's slots (:func:`_search_table`).
_SLOT_CELLS = 16384


def _search_table(law: np.ndarray):
    """Inverse-CDF table of a block law law[r, ...]: (cdf, guide, K, *coords).

    The outcomes kept are the cells of law[r] of positive mass in some row,
    in law's order; K is the least power of two that holds them and coords
    their coordinates, one array per outcome axis, padded to K. Row r of the
    flat cdf holds the running sums of row r over those outcomes at r*K..,
    with +inf from its last outcome of positive mass on: the first entry
    above a uniform u is an outcome of positive mass, and u < 1 never passes
    the row's end.

    The guide (the cutpoint method; Devroye 1986, Non-Uniform Random
    Variate Generation, III.2.4) cuts [0, 1) into K bins per row:
    guide[r*K + b] = r*K + #{i : cdf[r, i] <= b/K}, the flat index of the
    first running sum of row r above b/K. Running sum i of row r is at most
    b/K in the bins b >= ceil(K cdf[r, i]) (K is a power of two, so K cdf
    and its ceiling are exact). So one bincount of the flat slots r*K +
    min(ceil(K cdf), K) and one running sum over the whole table give the
    guide: each row's count includes the K entries of every row before it,
    and slot r*K + K, a sum above every bin of row r, is the first bin of
    row r + 1. The slots are made and counted _SLOT_CELLS cells of rows at a
    time, so the build holds cdf, the guide and one slice of slots: a slice
    from row r0 on counts its own slots, and adds r0*K. A law with no cell
    of positive mass raises ValueError.
    """
    kept = np.nonzero((law > 0).any(axis=0))
    size = len(kept[0])
    if size == 0:
        raise ValueError(f"law of shape {law.shape} has no cell of positive mass")
    k = 1 << max(size - 1, 0).bit_length()
    cdf = np.full((law.shape[0], k), np.inf)
    body = cdf[:, :size]
    body[...] = law[(slice(None), *kept)]
    live = body > 0
    last = np.where(live.any(axis=1), size - 1 - np.argmax(live[:, ::-1], axis=1), 0)
    np.cumsum(body, axis=1, out=body)
    cdf[np.arange(k) >= last[:, None]] = np.inf
    guide = np.empty(cdf.size, dtype=np.intp)
    step = max(1, _SLOT_CELLS // k)
    for r0 in range(0, len(cdf), step):
        slots = np.multiply(cdf[r0:r0 + step], k)
        np.ceil(slots, out=slots)
        np.minimum(slots, k, out=slots)
        slots = slots.astype(np.intp)
        slots += k * np.arange(len(slots))[:, None]
        # the rows before r0 add their r0*K entries to every bin from here
        # on; the last slot is the next row's first bin, counted there
        part = guide[r0 * k:r0 * k + slots.size]
        np.cumsum(np.bincount(slots.ravel(), minlength=slots.size + 1)[:-1], out=part)
        part += r0 * k
    coords = [np.zeros(k, dtype=np.intp) for _ in kept]
    for dst, src in zip(coords, kept):
        dst[:size] = src
    return (cdf.ravel(), guide, k, *coords)


def _search(cdf: np.ndarray, guide: np.ndarray, k: int, row: np.ndarray | None,
            u: np.ndarray, pos: np.ndarray, thr: np.ndarray, bit: np.ndarray) -> np.ndarray:
    """Outcome of each walker's uniform u in its row of a :func:`_search_table`.

    The outcome is the first running sum above u. The guide's bin
    floor(u K) of the walker's row (exact: K is a power of two) holds the
    first running sum above the bin's left edge, which is at most u, so no
    sum before it is above u: when it is itself above u, it is the outcome,
    found with one gather and one compare. The walkers whose guided sum is
    at most u (2 to 14 per cent in the walks' tables) go on to a fixed-depth
    binary search over their row: each of the log2 K levels is one gather,
    one compare, one shift and one add. Either way the outcome is the one
    the binary search alone finds. Writes the outcome's index in the kept
    outcomes to pos (which may be row) and returns it; thr and bit are
    scratch arrays of the same length. row None reads row 0 for every
    walker, as a row of zeros would, without the arithmetic of the rows:
    the shift and add that find the bin, and the mask that takes the flat
    index back to the row's.
    """
    # u >= 0, so the cast to an integer is the floor; u K is exact
    np.multiply(u, k, out=bit, casting="unsafe")
    if row is not None:
        np.left_shift(row, k.bit_length() - 1, out=pos)
        bit += pos
    # the bin is in its row, so mode="clip" never clips; it skips the
    # bounds check
    guide.take(bit, out=pos, mode="clip")
    cdf.take(pos, out=thr, mode="clip")
    miss = np.flatnonzero(thr <= u)
    if miss.size:
        at, v = pos[miss], u[miss]
        np.bitwise_and(at, -k, out=at)  # the row's first entry
        h = k >> 1
        while h:
            step = cdf[h - 1:].take(at, mode="clip") <= v
            at += step.astype(np.intp) << (h.bit_length() - 1)
            h >>= 1
        pos[miss] = at
    if row is not None:
        np.bitwise_and(pos, k - 1, out=pos)
    return pos


def _periodic(fold: list, width: int, start: int, count: int) -> list:
    """fold[i % width] for i = start..start + count - 1, 0 where i % width
    is past the end of fold."""
    out = []
    while len(out) < count:
        r = start % width
        take = min(count - len(out), width - r)
        part = fold[r:r + take]
        out += part + [0] * (take - len(part))
        start += take
    return out


def _absorb_law(sites: np.ndarray, lo: int, hi: int | None, steps: int) -> np.ndarray:
    """Law of ``steps`` steps of the conditioned walk absorbed at lo and hi.

    Returns law[r, o] for the walker that starts at sites[r], lo < sites[r]
    < hi (hi=None absorbs at lo only): o = 0 is absorption at lo, o = 1 + j
    survival with j up-steps (at sites[r] - steps + 2j), and o = steps + 2
    absorption at hi.

    The walk is the h-transform, h(x) = x, of the simple walk killed at lo
    and hi, so it goes from x to y = x - L + 2j in L = steps steps with
    probability K 2**-L y/x, K the number of killed paths. By the method of
    images (Feller, vol. 1, III and XIV), K = sum_s [C(L, j + sW) - C(L, j
    + u + sW)] with u = x - lo and W = hi - lo, and each sum over s is the
    binomial row folded mod W at j or j + u. hi=None is read as a hi out of
    every row's reach: W passes every index, and only s = 0 is left. The
    absorbed path counts follow from two exact identities: A_lo + A_hi =
    2**L - sum K, and, as the simple walk stopped at lo and hi is a
    martingale, lo A_lo + hi A_hi = x 2**L - sum y K. Every cell is an
    exact integer over x 2**L, divided once, so correctly rounded. One
    binomial row of exact integers, folded once, serves every row: the
    build holds it and one row's products, O(L**2) bits, beside the law,
    and costs O(rows L) operations on integers of L / 64 + 1 words.
    """
    if hi is None:
        hi = int(sites.max()) + steps + 1
    width, total = hi - lo, 1 << steps
    fold = [1]  # C(L, j) for j <= L/2, then the rest by symmetry
    for j in range(steps // 2):
        fold.append(fold[-1] * (steps - j) // (j + 1))
    fold += fold[:(steps + 1) // 2][::-1]
    for k in range(width, steps + 1):  # C(L, k) onto its residue mod W
        fold[k % width] += fold[k]
    del fold[width:]
    law = np.zeros((len(sites), steps + 3))
    for row, x in zip(law, sites.tolist()):
        u, den = x - lo, x << steps
        j0 = max(0, (steps - u) // 2 + 1)  # the first end above lo
        n = min(steps, (hi - x + steps - 1) // 2) + 1 - j0  # the ends below hi
        paths, images = _periodic(fold, width, j0, n), _periodic(fold, width, j0 + u, n)
        nums = list(map(operator.mul, range(x - steps + 2 * j0, hi, 2),
                        map(operator.sub, paths, images)))
        row[1 + j0:1 + j0 + n] = [num / den for num in nums]
        rest = den - sum(nums)  # lo A_lo + hi A_hi
        at_hi = hi * ((rest - lo * (total - sum(paths) + sum(images))) // width)
        row[0], row[-1] = (rest - at_hi) / den, at_hi / den
    return law


def _absorb(gen: np.random.Generator, pos: np.ndarray, lo: int, hi: int | None,
            max_steps: int):
    """Run conditioned walkers until they are absorbed at lo or hi.

    The walkers start strictly inside (lo, hi); hi=None absorbs at lo only.
    Stops after max_steps steps or once every walker is absorbed. Returns
    (number absorbed at lo, positions of the walkers still active, in their
    input order).

    The walk runs in stretches: per stretch each active walker draws one
    uniform, in walker order, and takes its outcome (absorbed at lo, still
    active with j up-steps, or absorbed at hi) from the stretch's exact law
    (:func:`_absorb_law`, with or without hi) by inverse CDF: the table's
    guide, and a binary search for the walkers it does not place
    (:func:`_search`).

    - Without hi, a stretch is every step still to go, or the most steps
      whose law, rows x (steps + 3) cells, fits _BATCH_CELLS, from one row
      per occupied site (np.unique), each walker reading its site's row.
      So most calls draw once per walker, and memory is O(M + the law),
      however far apart the walkers are.
    - With hi, a stretch is a block of _BLOCK steps (the last may be
      shorter). The law's rows cover every site from the lowest walker to
      the highest, with a margin on each side of at least the block and the
      old rows' span: when a walker leaves them, they are rebuilt around
      the walkers, capped below hi. So memory is O(M + K x (highest - lowest
      + margin)), independent of hi and of how far from lo the walkers
      start.

    Raises ValueError if a start is not strictly inside (lo, hi).
    """
    p = np.array(pos, dtype=np.int64)
    if p.size and (p.min() <= lo or (hi is not None and p.max() >= hi)):
        raise ValueError(f"starts must lie strictly inside ({lo}, {hi})")
    u = np.empty(p.size)
    thr = np.empty(p.size)
    idx = np.empty(p.size, dtype=np.intp)
    bit = np.empty(p.size, dtype=np.intp)
    hits = 0
    table_steps = base = top = 0  # the interval table's block length and sites
    k0 = 0
    while k0 < max_steps and p.size:
        m = p.size
        if hi is None:
            cdf = guide = outcome = None  # free the last table before the next
            sites, idx[:m] = np.unique(p, return_inverse=True)
            steps = min(max_steps - k0, max(1, _BATCH_CELLS // len(sites) - 3))
            cdf, guide, k, outcome = _search_table(_absorb_law(sites, lo, None, steps))
        else:
            steps = min(_BLOCK, max_steps - k0)
            low, high = int(p.min()), int(p.max())
            if steps != table_steps or low < base or high > top:
                pad = max(steps, top - base + 1)
                base, top = max(lo + 1, low - pad), min(high + pad, hi - 1)
                cdf = guide = outcome = None
                cdf, guide, k, outcome = _search_table(
                    _absorb_law(np.arange(base, top + 1), lo, hi, steps))
                table_steps = steps
            np.subtract(p, base, out=idx[:m])
        gen.random(out=u[:m])
        _search(cdf, guide, k, idx[:m], u[:m], idx[:m], thr[:m], bit[:m])
        o = outcome.take(idx[:m], out=bit[:m], mode="clip")
        p += o  # p - steps + 2j for the walkers still active
        p += o
        p -= steps + 2
        k0 += steps
        if o.min() == 0 or (hi is not None and o.max() == steps + 2):
            done = o == 0
            hits += int(np.count_nonzero(done))
            if hi is not None:
                done |= o == steps + 2
            p = p[~done]
    return hits, p


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
