"""The one-dimensional random interlacement process at level alpha.

A Poisson cloud of conditioned-walk trajectories: the number hitting a finite
set A is Poisson(alpha * cap(A ∪ {0})), the vacant set law is the exponential
of that capacity, and the local time at a site x is compound Poisson --
Poisson(alpha*x/2) many geometric(1/(2x)) visit counts.

The samplers draw aggregates, never single steps. Both rest on one identity:
a sum of N geometrics on {1, 2, ...} with success probability p has the law
of N + NegBin(N, p), where NegBin counts failures. The local-time sampler is
that identity at one site. The window sampler runs it along the edge
up-crossing counts of each half-line (the Ray-Knight description of walk
local times): one chain per side of each window, whatever its number of
trajectories, and one negative-binomial draw per site on it, so O(L) draws
per window, and the joint law of all visit counts in [-L, L] is exact.
Each batch of draws inverts the exact pmf table of its law, one uniform
per draw through a guide table, when the table has at most as many cells as
the batch has draws; otherwise numpy draws it. The local-time sampler draws
each local time from the one-row table of its own law, mixed from the
Poisson and negative-binomial tables, where that fits (small x, as in the
acceptance checks at x = 3 and 5); otherwise it draws its Poisson
trajectory counts first and then one negative binomial per count (at
x = 400 by numpy). The window sampler draws its Poisson trajectory counts
first, and then a batch of negative binomials with one p for each level of
its chain. Only the Poisson counts of a single window, the negative
binomials of large x, and the chain levels whose tables outgrow the batch
(past x = 9 at a chunk of 65,536) go to numpy.

The exact local-time pmf is Panjer's compound-Poisson recursion. Geometric
severity lets two running sums carry its convolution, so the pmf to s_max
costs O(s_max) with relative error of order s_max*eps. Its start f(0) = 1
carries exp(-alpha*x/2) in log form with power-of-two rescaling, so the law
is right up to x = 2770 at alpha = 1, past the underflow of exp(-alpha*x/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .capacity import IntervalSet, capacity_hat
from .core_walks import _search, _search_table
from .rngs import RngState


def _alpha(level) -> float:
    """The level alpha as a float, checked to be positive."""
    a = float(level)
    if not a > 0:
        raise ValueError(f"level must be positive, got {a}")
    return a


@dataclass(frozen=True)
class WindowSample:
    """One draw of the interlacement restricted to the window [-L, L].

    ``visits`` maps visited sites (never 0) to their visit counts;
    ``vacant_interval`` is (neg_edge, pos_edge), the extreme visited sites
    around the origin, with sentinels -L-1 / L+1 when a side is untouched.
    """

    half_width: int
    trajectory_count: int
    visits: dict[int, int] = field(default_factory=dict)
    vacant_interval: tuple[int, int] = (0, 0)


@dataclass(frozen=True)
class LocalTimeLaw:
    """Exact pmf of the local time at a site, truncated with known tail mass."""

    x: int
    alpha: float
    pmf: np.ndarray
    tail_mass: float
    truncation_warning: bool

    @property
    def s_max(self) -> int:
        return len(self.pmf) - 1

    # Each moment builds one float index array and works in it in place, so
    # its peak memory is one pmf-sized array.
    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.pmf), dtype=np.float64), self.pmf))

    def variance(self) -> float:
        s = np.arange(len(self.pmf), dtype=np.float64)
        s -= np.dot(s, self.pmf)
        np.square(s, out=s)
        return float(np.dot(s, self.pmf))


def local_time_mean(x: int, level) -> float:
    """Closed-form mean of the local time: alpha * x^2."""
    return _alpha(level) * x * x


def local_time_variance(x: int, level) -> float:
    """Closed-form variance of the local time: alpha * (4x - 1) * x^2."""
    a = _alpha(level)
    return a * (4 * x - 1) * x * x


def vacant_prob_exact(A: IntervalSet, level) -> float:
    """P[A is vacant] = exp(-alpha * cap(A ∪ {0}))."""
    return math.exp(-_alpha(level) * capacity_hat(A))


# -- window sampler -----------------------------------------------------------

#: Draws per slice of a table draw (:func:`_table_draws`): its uniforms and
#: search scratch are four arrays of this length, reused slice after slice.
_DRAW_SLICE = 8192


def _cut_row(start: float, ratio, least: float, cap: int) -> np.ndarray | None:
    """The row start, start r_1, start r_1 r_2, ... cut where its tail is
    below 2**-60, or None past the budget of cap columns.

    ratio(j) gives r_j for a float array j, and r_j does not increase in j,
    so the mass from column J on is at most row[J] / (1 - r_{J+1}) once
    r_{J+1} < 1. The row keeps the columns 0..J-1 of the least J at which
    that bound is below 2**-60, under the rounding of a running sum near 1,
    so a uniform that passes the last column's running sum takes the last
    column. The bound needs r_{J+1} < 1, that is J > least, so a cap of at
    most least returns None at once, as does a start below the normal range.
    Otherwise the row is run to widths that double up to cap; a bound still
    too large there returns None.
    """
    if cap <= least or start < 2.0**-1022:
        return None
    width = 0
    while True:
        if width == cap:
            return None
        width = min(cap, 2 * width + 64)
        r = ratio(np.arange(1.0, width + 2))  # r_1 .. r_{width+1}
        row = np.concatenate(([start], r))
        np.multiply.accumulate(row, out=row)
        # the bound at J = 1 .. width: row[J] / (1 - r_{J+1})
        below = (r[1:] < 1) & (row[1:-1] < 2.0**-60 * (1 - r[1:]))
        if below.any():
            return row[:1 + int(np.argmax(below))]


def _poisson_law(lam: float, draws: int) -> np.ndarray | None:
    """law[0, j] = P[Poisson(lam) = j], or None past the budget.

    The row runs the ratio recurrence r_j = lam / j from e**-lam and is cut
    by :func:`_cut_row`, within a budget of as many cells as the draws it
    serves, so the build stays O(draws). Its bound needs J > lam - 1;
    e**-lam below the normal range (lam above about 708) returns None.
    """
    row = _cut_row(math.exp(-lam), lambda j: lam / j, lam - 1, draws)
    return None if row is None else row[None]


def _negbin_law(n_max: int, p: float, draws: int) -> np.ndarray | None:
    """law[k, j] = P[NegBin(k, p) = j] for k <= n_max, or None past the budget.

    Each row runs the ratio recurrence from law[k, 0] = p**k: law[k, j] =
    law[k, j-1] r_j with r_j = q (k + j - 1) / j, q = 1 - p. For k >= 1, r_j
    does not increase in j, and NegBin(k, p) grows stochastically with k, so
    the cut of row n_max by :func:`_cut_row` holds for every row. The table
    is built only when it has at most as many cells as the draws it serves,
    so the build stays O(draws). The bound needs r_{J+1} < 1, that is
    J > (q n_max - 1) / p; p**n_max below the normal range returns None.
    """
    q = 1 - p
    top = _cut_row(p ** n_max, lambda j: q * (n_max - 1 + j) / j,
                   (q * n_max - 1) / p, draws // (n_max + 1))
    if top is None:
        return None
    cols = len(top)
    law = np.empty((n_max + 1, cols))
    np.add.outer(np.arange(n_max + 1.0), np.arange(cols - 1.0), out=law[:, 1:])
    law[:, 1:] *= q
    law[:, 1:] /= np.arange(1, cols)
    law[:, 0] = p ** np.arange(n_max + 1.0)
    np.multiply.accumulate(law, axis=1, out=law)
    return law


def _compound_law(poisson: np.ndarray, p: float, draws: int) -> np.ndarray | None:
    """law[0, s] = P[N + NegBin(N, p) = s] for N of the Poisson table
    poisson (a :func:`_poisson_law` row), or None past the budget.

    Row k of the table of :func:`_negbin_law` to the Poisson row's last
    column, shifted by k and weighted by P[N = k], is the law's part with
    N = k; their sum, in order of k, is the law. Both tables cut tails below
    2**-60, so the mass left out is below 2**-59. The row has fewer cells
    than the NegBin table it is mixed from, and that table is built only
    within the budget of :func:`_negbin_law`, so the build stays O(draws).
    Every column has mass, so an outcome's index is its column: the least
    cell is e**-lam at s = 0 (a normal double, or there is no Poisson row)
    or one at the row's far end, near 2**-120.
    """
    law = _negbin_law(poisson.shape[1] - 1, p, draws)
    if law is None:
        return None
    rows, cols = law.shape
    law *= poisson[0, :, None]
    out = np.zeros((1, rows - 1 + cols))
    for k in range(rows):
        out[0, k:k + cols] += law[k]
    return out


def _table_draws(gen: np.random.Generator, table: tuple, rows: np.ndarray | None,
                 out: np.ndarray) -> np.ndarray:
    """Add to each entry of out, in order, one uniform's outcome in its row.

    table is a :func:`~ri1d.core_walks._search_table` of a law with mass in
    every column, so an outcome's index is its column; entry i reads row
    rows[i], or row 0 when rows is None (one row: the search skips the
    rows' arithmetic). Each uniform is inverted through the guide table (the
    cutpoint method: one gather and one compare for most draws). The entries
    go _DRAW_SLICE at a time through four buffers of that length or of
    out's, whichever is shorter, made once a call, and the uniforms are
    those of one gen.random call over all of out. Returns out.
    """
    cdf, guide, k, _ = table
    size = min(_DRAW_SLICE, out.size)
    u, thr = np.empty(size), np.empty(size)
    pos, bit = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    for lo in range(0, out.size, _DRAW_SLICE):
        m = min(_DRAW_SLICE, out.size - lo)
        row = None if rows is None else rows[lo:lo + m]
        gen.random(out=u[:m])
        out[lo:lo + m] += _search(cdf, guide, k, row, u[:m], pos[:m], thr[:m], bit[:m])
    return out


def _row_draws(gen: np.random.Generator, law: np.ndarray, size: int) -> np.ndarray:
    """size draws, int64, of the one-row law: one uniform each, in order."""
    return _table_draws(gen, _search_table(law), None, np.zeros(size, dtype=np.int64))


def _poisson(gen: np.random.Generator, lam: float, size: int) -> np.ndarray:
    """size Poisson(lam) counts, int64.

    Where the table of :func:`_poisson_law` fits its budget, one uniform per
    count, in order, inverted in it by :func:`_row_draws`; otherwise numpy's
    poisson, as for a single window or a table larger than the batch.
    """
    law = _poisson_law(lam, size)
    return gen.poisson(lam, size) if law is None else _row_draws(gen, law, size)


def _negbin(gen: np.random.Generator, n: np.ndarray, p: float,
            out: np.ndarray | None = None) -> np.ndarray:
    """NegBin(n, p) failure counts, 0 where n = 0.

    The draws are added into out in place (a new array of zeros by default;
    out may be n) and out is returned, so out = n gives n + NegBin(n, p), the
    sum of n geometrics on {1, 2, ...} with success probability p. Where
    every n is 0, nothing is drawn.

    Where the exact table of :func:`_negbin_law` fits its budget, as many
    cells as n has entries, each entry of n, in order, draws one uniform and
    inverts it in row n of the table by :func:`_table_draws`. Otherwise
    numpy's negative_binomial draws, from n itself where every n is
    positive, else from a compressed copy of the positive entries; their
    draws, plus out's values there, go back into out by np.place, so no
    gather of out[n > 0] is held beside them.
    """
    if out is None:
        out = np.zeros_like(n)
    n_max = int(n.max()) if n.size else 0
    if n_max == 0:
        return out
    law = _negbin_law(n_max, p, n.size)
    if law is None:
        live = n > 0
        if live.all():
            out += gen.negative_binomial(n, p)
        else:
            draws = gen.negative_binomial(np.compress(live, n), p)
            draws += np.compress(live, out)
            np.place(out, live, draws)
        return out
    # row n_max has mass in every column, so the table keeps them all
    table = _search_table(law)
    del law
    return _table_draws(gen, table, n, out)


def _simulate_window_batch(alpha: float, L: int, M: int, gen: np.random.Generator):
    """Draw M independent window samples as edge up-crossing chains.

    Returns (visit counts, trajectory counts per replicate, None). Visit
    counts are indexed by site + L, so column L (site 0) is always zero. They
    are stored site by site, as the transpose of a (2L + 1, M) array, so each
    site's column is contiguous. The third value is a placeholder kept for
    callers that unpack three values.

    Each side of the window receives Poisson(alpha*L/2) trajectories, which
    enter at -L or +L and follow the conditioned walk on their half-line.
    Let U_x count the up-crossings of the edge (x, x+1) on one side. Every
    up-crossing of (L, L+1) returns with the exact probability L/(L+1), so
    each trajectory has a geometric number of them on {1, 2, ...}, and N
    trajectories have U_L = N + NegBin(N, 1/(L+1)). Each arrival at x from
    above leaves x downward a geometric number of times before it leaves
    upward, so U_{x-1} = NegBin(U_x, (x+1)/(2x)), counting failures, and
    U_0 = 0. Site x is visited U_x + U_{x-1} times. Negative binomials with
    the same p add, so one chain per (side, replicate) gives the joint law of
    all the window's visit counts in L draws.

    The stream draws the 2M Poisson counts first, by :func:`_poisson`, so
    the trajectory counts do not depend on how the chain is drawn: one
    uniform per count through the exact Poisson table where it fits (every
    batch of the harness), else numpy's poisson (a single window). Then the
    entry draw of U_L and each level x = L, ..., 2 draw their 2M negative
    binomials by :func:`_negbin`: by the exact table and one uniform per
    entry where the table has at most 2M cells (at L = 8, every level of
    the harness's chunk of 65,536 in checks 01 and 02b; in the chunk of
    34,464 after it, level 8's table is near 2M cells and passes it at some
    seeds), else by numpy: the levels past x = 9 at a chunk of 65,536, whose
    counts outgrow any table of O(M) cells.
    """
    if L < 1:
        raise ValueError(f"half-width must be >= 1, got {L}")
    u = _poisson(gen, alpha * L / 2, 2 * M)  # slots 0..M-1: sites < 0
    n_traj = u[:M] + u[M:]
    _negbin(gen, u, 1 / (L + 1), out=u)
    counts = np.zeros((2 * L + 1, M), dtype=np.int64).T
    for x in range(L, 1, -1):
        below = _negbin(gen, u, (x + 1) / (2 * x))
        np.add(u[:M], below[:M], out=counts[:, L - x])
        np.add(u[M:], below[M:], out=counts[:, L + x])
        u = below
    # p = 1 at x = 1, where U_0 = NegBin(U_1, 1) = 0: the chain's last draw
    # is skipped, and the draws before it keep their bits
    counts[:, L - 1] = u[:M]
    counts[:, L + 1] = u[M:]
    return counts, n_traj, None


def sample_window(level, L: int, rng: RngState) -> WindowSample:
    """One interlacement draw restricted to the window [-L, L]."""
    counts, n_traj, _ = _simulate_window_batch(_alpha(level), L, 1, rng.generator())
    row = counts[0]
    visits = {s - L: int(c) for s, c in enumerate(row) if c > 0}
    pos_sites = [s for s in visits if s > 0]
    neg_sites = [s for s in visits if s < 0]
    pos_edge = min(pos_sites) if pos_sites else L + 1
    neg_edge = max(neg_sites) if neg_sites else -L - 1
    return WindowSample(
        half_width=L,
        trajectory_count=int(n_traj[0]),
        visits=visits,
        vacant_interval=(neg_edge, pos_edge),
    )


# -- local times --------------------------------------------------------------

def sample_local_times(x: int, level, M: int, gen: np.random.Generator) -> np.ndarray:
    """M independent local-time draws at x.

    The local time is a sum of n ~ Poisson(alpha*x/2) geometric visit counts
    on {1, 2, ...} with success probability 1/(2x), that is n + NegBin(n,
    1/(2x)), counting failures. Where the exact one-row table of that law
    (:func:`_compound_law`) fits its budget (small x, as at x = 3 and 5 with
    M = 65,536: 513 and 951 cells), each local time is one uniform, in
    order, inverted in it by :func:`_row_draws`. Otherwise the sum is drawn
    in two steps: the M Poisson counts first, one uniform per count in the
    Poisson table already built where it fits (as at x = 400), else numpy's
    poisson; then the negative binomials by :func:`_negbin`, added into the
    counts in place: by its table where that fits, else numpy's
    negative_binomial (large x, as at x = 400).
    """
    if x < 1:
        raise ValueError(f"site must be >= 1, got {x}")
    lam, p = _alpha(level) * x / 2, 1 / (2 * x)
    poisson = _poisson_law(lam, M)
    law = None if poisson is None else _compound_law(poisson, p, M)
    if law is not None:
        return _row_draws(gen, law, M)
    n = gen.poisson(lam, M) if poisson is None else _row_draws(gen, poisson, M)
    return _negbin(gen, n, p, out=n)


def local_time_cf(x: int, level, t) -> complex:
    """Characteristic function exp(alpha x^2 (e^{it}-1) / (2x - (2x-1) e^{it}))."""
    if x < 1:
        raise ValueError(f"site must be >= 1, got {x}")
    a = _alpha(level)
    e = np.exp(1j * np.asarray(t, dtype=np.float64))
    val = np.exp(a * x * x * (e - 1) / (2 * x - (2 * x - 1) * e))
    return complex(val) if np.ndim(t) == 0 else val


#: Largest default truncation point of the local-time pmf.
_S_MAX_CAP = 10**7
#: The pmf recursion rescales by 2**-_RESCALE_BITS when it passes 2**_RESCALE_BITS.
_RESCALE_BITS = 600


def _default_s_max(x: int, alpha: float) -> int:
    """Smallest truncation point with Chernoff tail bound below 1e-12.

    Uses the compound-Poisson mgf exp(lam*(M_V(theta)-1)) with geometric
    severity, minimized over a theta grid inside its domain. The bound falls
    as s grows, so bisection finds the smallest integer s that passes.
    Raises past _S_MAX_CAP, which at alpha = 1 happens above x = 2770.
    """
    lam = alpha * x / 2
    p = 1 / (2 * x)
    q = 1 - p
    theta = np.linspace(1e-8, -math.log(q) * 0.999, 256)
    et = np.exp(theta)
    log_mgf = lam * (p * et / (1 - q * et) - 1)

    def passes(s: int) -> bool:
        return bool(np.min(log_mgf - theta * s) < math.log(1e-12))

    if not passes(_S_MAX_CAP):
        raise RuntimeError(f"local-time pmf at x = {x}, alpha = {alpha:g}: its tail "
                           f"stays above 1e-12 past the cap s = {_S_MAX_CAP:,}")
    lo, hi = 0, _S_MAX_CAP  # passes(lo) is False (the bound is >= 0 there)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def local_time_pmf(x: int, level, s_max: int | None = None) -> LocalTimeLaw:
    """Exact local-time pmf via the Panjer (compound Poisson) recursion.

    With lam = alpha*x/2 trajectories and geometric severity
    g(j) = p q^{j-1}, p = 1/(2x), q = 1 - p, Panjer's recursion reads
    f(0) = exp(-lam), f(s) = (c/s) S(s) with c = lam*p = alpha/4 and
    S(s) = sum_{j=1..s} j q^{j-1} f(s-j). For geometric severity S is carried
    by two running sums, with T(s) = sum_{j=1..s} q^{j-1} f(s-j):

        T(s) = f(s-1) + q T(s-1),  S(s) = f(s-1) + q (S(s-1) + T(s-1)),

    so each entry costs O(1) and the pmf O(s_max). Every term is positive,
    nothing cancels, and each entry keeps a relative error of order s*eps
    (measured against a 40-digit run of the same recursion: 1.7e-13 at
    x = 100, 6e-12 at x = 200, alpha = 1).

    The recursion is linear in f(0), so it starts at f(0) = 1 and carries the
    factor exp(-lam) in log form; S, T and f are rescaled by 2**-600 whenever
    S passes 2**600, and the accumulated factor is applied once at the end,
    as an exact power of two times a factor in [1, 2). So exp(-lam) never
    underflows on its own, and the law is right for every
    x that the default truncation accepts (up to x = 2770 at alpha = 1, where
    s_max nears 1e7); entries below the double range come out as 0.

    Truncated at s_max (default: Chernoff tail below 1e-12). ``tail_mass`` is
    1 - sum(pmf), signed: besides the truncated tail it holds the rounding of
    the sum, of order s_max*eps either way. ``truncation_warning`` is raised
    when it exceeds 1e-9.
    """
    if x < 1:
        raise ValueError(f"site must be >= 1, got {x}")
    a = _alpha(level)
    if s_max is None:
        s_max = _default_s_max(x, a)
    if s_max < 0:
        raise ValueError(f"truncation point must be >= 0, got {s_max}")
    lam = a * x / 2
    c = a / 4
    q = 1 - 1 / (2 * x)
    big, shrink = 2.0**_RESCALE_BITS, 2.0**-_RESCALE_BITS
    f = np.empty(s_max + 1)
    f[0] = prev = 1.0
    S = T = 0.0
    rescales = 0
    for s in range(1, s_max + 1):
        S = prev + q * (S + T)
        T = prev + q * T
        prev = c / s * S
        f[s] = prev
        if S > big:
            S, T, prev = S * shrink, T * shrink, prev * shrink
            f[:s + 1] *= shrink
            rescales += 1
    # the factor 2**log2_scale is applied as 2**n * 2**frac: with a short
    # s_max the whole factor underflows where f times it does not
    log2_scale = rescales * _RESCALE_BITS - lam / math.log(2)
    n = math.floor(log2_scale)
    f *= 2.0 ** (log2_scale - n)
    np.ldexp(f, n, out=f)
    tail = 1.0 - float(f.sum())
    return LocalTimeLaw(x=x, alpha=a, pmf=f, tail_mass=tail,
                        truncation_warning=tail > 1e-9)


def standardize_local_time(sample, x: int, level):
    """CLT standardization (sample - alpha x^2) / (x sqrt(alpha (4x-1)))."""
    if x < 1:
        raise ValueError(f"site must be >= 1, got {x}")
    a = _alpha(level)
    return (np.asarray(sample, dtype=np.float64) - a * x * x) / (x * math.sqrt(a * (4 * x - 1)))
