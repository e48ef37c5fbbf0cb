"""Survival kernels h_n(x,t) for the walk killed at {0,n} and the ring walk.

The ring of n sites with a forbidden origin is represented as the segment
{1..n-1} with killing at 0 and n (ring site -a is line site n-a). Every
exact ring quantity is the simple walk killed at 0 and n, in two engines.
:func:`_killed_walk` yields every row h_n(., s) = P_.[tau_{0,n} > s] of the
backward survival recursion from the all-ones vector, a run of 32 steps at a
time, through a run buffer whose views are built once (:class:`_RunBuffer`):
one np.add a step into unhalved sums, and one exact multiply by powers of
two at the run's end. Its rows are those of :class:`SurvivalKernel` and
check 05. The kernel keeps the row each run starts from and replays the run
from there, bit for bit, in a run buffer of its own, to read a row of it.
:func:`_killed_sum` returns sum_y P_x[X_t = y, alive] weight(y) by meeting
in the middle: the point mass at x walks half the blocks of 32 steps
forward and the weight row the other half back (the killed law is
symmetric), both rows through one batched matmul a block over the exact
band of the 32-step killed law K_32 (:func:`_killed_band`), gathered once
into one 48 x 16 matrix per 16 rows, on the sites in reach only; the sum is
their dot product. Against the weight 1 it is h_n(x, t) (:func:`h_dp`), and
on the part of the segment that a killed site cuts off, against h_n(.,
t - delta), the first leg behind the no-hit and mid-tail checks.
Point values also have closed forms: the odd-mode spectral sum in signed log
domain (summed by :func:`_logsumexp`, a numpy port of scipy's log-sum-exp),
read only through :func:`_log_h`, and the first-mode asymptotic
(4/pi) cos^t(pi/n) sin(pi x/n), valid once t >= (4/pi^2) n^2 ln n. The pi/4
value of :func:`verify_pi4` needs no propagation: sin(pi x/n) is an
eigenvector of the killed walk. The :class:`SurvivalKernel` rows stop at
the remaining time s* ~ 0.93 n^2 (even n) or 2.5 n^2 (odd n) from which
h_n(., s) is its two slowest modes to 2**-53, and the kernel stores a row a
run, so its memory is O(n min(t, s*) / 32); later times are that settled
row times a power of cos(pi/n). On top of the kernel sit the
time-inhomogeneous conditioned ring walk and its exact vacant-set and
local-time functionals. An up-step reads one kernel row: h(x+1, s-1) / (2
h(x, s)) is h(x+1, s-1) / (h(x-1, s-1) + h(x+1, s-1)) (:func:`_up_probs`).
The path sampler reads the kernel's site-indexed up-step rows one run of 32
steps at a time, each run replayed once as it descends
(:meth:`SurvivalKernel._up_rows`), with the kept Doob step for every time
past the stored rows; it draws one uniform per step and compares it with
the row of its step. The batch
walk behind the vacant-set and local-time samplers is built as the paper
builds the conditioned walk, a Doob h-transform of the walk killed at 0 and
n: along a path that stays in 1..n-1 the up-steps telescope, so the law of
any stretch of L steps, with its marks, is the killed law K_L (2**-L times
a count of killed paths, the same at every time) times h at the stretch's
end over h at its start. The exact killed law of one block of 32 steps
(:func:`_killed_band`, the killed sum's band) is the method of images in
closed form without a mark, and with a mark one block recursion
(:func:`_block_recursion`: the simple walk killed at a few sites, with a
visit mark). By end row (:func:`_killed_block`, :func:`_by_end_row`) it is
the joint law of the walker's end row, visits to a site and contact with an
interval's bounds, the contact flag as the difference of the law killed at
0 and n and the law killed at the bounds too. :func:`_compose` composes it
with itself by doubling into the killed laws of 2**j blocks: rows through
the end row, visit counts by convolution, contact flags by or, every cell a
sum of nonnegative products. One generator, :func:`_block_laws`, owns the
schedule: the top power while it fits, the set bits of the rest, the short
last block, each h-transformed to its stretch by one broadcast multiply
with a kernel row (:func:`_h_transform`); the stretches that end past the
kernel's stored rows share one law. The walk draws one uniform per walker
per draw of a law and inverts it against the law (a guide table first, a
binary search for the walkers it does not place); the tests compose the
same laws into the exact law of the walk's output.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from collections import deque
from itertools import starmap

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .config import in_cond_regime
from .core_walks import _BATCH_CELLS, _BLOCK, WalkPath, _search, _search_table
from .rngs import RngState

#: Memory budget in bytes for a kernel's stored rows, or for them plus the
#: up-step table derived from them: half of the physical memory.
KERNEL_BYTES_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


# -- point values and the killed-walk step -------------------------------------

def _check_domain(n: int, x: int, t: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x}, n={n}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")


def _logsumexp(a, b=None, return_sign=False):
    """log|sum b e^a| along the last axis, and with return_sign its sign (0
    for 0).

    The algorithm of scipy 1.17.1's ``scipy.special.logsumexp`` for real
    input (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021),
    with the same bits: every element tied at the maximum is split out with
    weight m, the rest is summed shifted and scaled to s, and the result is
    log1p(s) + log|m| + max. Where that is not finite (an all-zero sum, an
    empty one, infinite terms) the direct log|sum b e^a| stands, computed
    for those sums alone (each along its own contiguous row, so with the
    bits of the whole array's), and an all-zero sum gives (-inf, 0).
    Without return_sign a negative sum gives nan.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.ones_like(a) if b is None else np.asarray(b, dtype=np.float64)
    a, b = np.broadcast_arrays(a, b)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        live = np.where(b == 0, -np.inf, a)
        a_max = np.max(live, axis=-1, keepdims=True, initial=-np.inf)
        tied = live == a_max
        m = np.sum(b * tied, axis=-1, keepdims=True)
        s = np.sum(b * np.exp(np.where(tied, -np.inf, live) - a_max), axis=-1,
                   keepdims=True)
        s = np.where(s == 0, s, s / m)
        sign = (np.sign(s + 1) * np.sign(m))[..., 0]
        s = np.where(s < -1, -s - 2, s)
        out = (np.log1p(s) + np.log(np.abs(m)) + a_max)[..., 0]
        bad = ~np.isfinite(out)
        if bad.any():
            direct = np.sum(b[bad] * np.exp(a[bad]), axis=-1)
            out[bad] = np.log(np.abs(direct))
            sign[bad] = np.sign(direct)
    if not return_sign:
        return np.where(sign < 0, np.nan, out)[()]
    return out[()], sign[()]


def _spectral_log_terms(n: int, x, t):
    """Per-mode (log|term|, sign) of the killed-walk spectral sum.

    x and t may each be a scalar or an array; the result has the axes of t,
    then those of x, then the modes along the last axis. Each term is
    (2/n) cos^t(theta_j) cot(theta_j/2) sin(x theta_j) with
    theta_j = pi(2j-1)/n, j = 1..floor(n/2); cos^t is carried as t*ln|cos|
    with explicit sign tracking so horizons up to 1e7 cannot underflow.
    ln|cos theta| is :func:`_log_cos` of min(theta, pi - theta), within a
    few eps, where np.log(np.abs(np.cos(theta))) loses 2 n^2 eps / pi^2 and
    h drifts by t times that. An array t gives the same bits as one scalar
    call per entry. A negative entry of t raises ValueError.
    """
    ts = np.asarray(t)
    if (ts < 0).any():
        raise ValueError(f"need t >= 0, got {ts.min()}")
    j = np.arange(1, n // 2 + 1, dtype=np.float64)
    theta = np.pi * (2 * j - 1) / n
    zero = 4 * j == n + 2  # theta = pi/2, where cos is 0, not 6e-17
    negative = 2 * (2 * j - 1) > n  # theta > pi/2
    # |cos theta| = cos phi with phi = min(theta, pi - theta) in [0, pi/2]
    phi = np.pi * np.minimum(2 * j - 1, n + 1 - 2 * j) / n
    xs = np.asarray(x, dtype=np.float64)
    tt = ts.reshape(ts.shape + (1,) * (xs.ndim + 1))  # t axes, x axes, mode
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.where(zero, -np.inf, _log_cos(phi))
        # t == 0 must give log 1 even for the cos = 0 mode (0 * -inf trap)
        pow_part = np.where(tt > 0, tt * log_c, 0.0)
    cot_half = 1.0 / np.tan(theta / 2)  # positive: theta/2 in (0, pi/2)
    # sin(n theta_j) is rounding noise, not 0: a killed site gives the terms 0
    s = np.where((xs % n == 0)[..., None], 0.0, np.sin(np.multiply.outer(xs, theta)))
    with np.errstate(divide="ignore"):
        log_abs = (pow_part + np.log(cot_half) + math.log(2.0 / n)
                   + np.log(np.abs(s)))
    sign = np.sign(s) * np.where(negative & (tt % 2 == 1), -1.0, 1.0)
    return log_abs, sign


def h_spectral_log(n: int, x, t):
    """(log|h|, sign) from the spectral sum; sign 0 encodes an exact zero.

    x and t may be scalars or arrays; the result has the axes of t, then
    those of x (:func:`_spectral_log_terms`).
    """
    log_abs, sign = _spectral_log_terms(n, x, t)
    return _logsumexp(log_abs, b=sign, return_sign=True)


def _log_h(n: int, x, t):
    """log h_n(x, t) from the spectral sum; x and t may each be a scalar or
    an array, and the result has the axes of t, then those of x.

    A killed site, x = 0 or n, gives -inf. Inside the segment the sum is
    positive, so a negative sum is cancellation and raises RuntimeError,
    which names the first (x, t) where it is.
    """
    log_abs, sign = map(np.asarray, h_spectral_log(n, x, t))
    if (sign < 0).any():
        at = np.unravel_index(np.argmax(sign < 0), sign.shape)
        t_axes = np.ndim(t)
        raise RuntimeError(f"spectral sum is negative at n={n}, "
                           f"x={np.asarray(x)[at[t_axes:]]}, "
                           f"t={np.asarray(t)[at[:t_axes]]} (cancellation)")
    log_h = np.where(sign == 0, -np.inf, log_abs)
    return float(log_h) if log_h.ndim == 0 else log_h


def h_spectral(n: int, x: int, t: int) -> float:
    """Survival probability via the odd-mode spectral sum, in signed log domain.

    The killed sites x = 0 and x = n give exactly 0.0; elsewhere a negative
    sum raises RuntimeError (:func:`_log_h`). Rounding above 1 (at most
    1.8e-15 for n < 60, t < 80) is capped at 1.0.
    """
    _check_domain(n, x, t)
    if x in (0, n):
        return 0.0
    return min(float(np.exp(_log_h(n, x, t))), 1.0)


#: Steps in one run of :func:`_killed_walk`, so the spacing of the rows a
#: :class:`SurvivalKernel` keeps. A run steps in unhalved sums, and one
#: unhalved step at most doubles the max, so from a row of h, at most 1, the
#: sums stay below 2**32.
_RESCALE_EVERY = 32
_LN2 = math.log(2.0)


def _rescale(row: np.ndarray) -> float:
    """Scale row in place by the power of two 2**-e that brings its max into
    [1/2, 1) and return e; an all-zero row stays zero and gives -inf."""
    m = row.max()
    if m == 0.0:
        return -math.inf
    shift = math.frexp(m)[1]
    np.ldexp(row, -shift, out=row)
    return shift


class _RunBuffer:
    """The run engine of the killed walk on 0..n: a buffer of _RESCALE_EVERY
    + 1 rows and the views of every step of a run, built once.

    One step maps row i to 0.5 (row[x-1] + row[x+1]) on 1..n-1 and to 0 at
    0 and n. A run stores the unhalved sums, so its row i is 2**i times the
    walk's and the add is the only rounding, and ends by multiplying each
    row i by 2**-i, which is exact: its rows are those of the plain loop
    w[1:n] = 0.5 (w[:n-1] + w[2:]), bit for bit. An up-step reads row i
    alone and forms the same sums (:func:`_up_probs`). The ends 0 and n are
    never written.
    """

    def __init__(self, n: int):
        self.buf = np.zeros((_RESCALE_EVERY + 1, n + 1))
        # step i of a run: the views of the sites x-1 and x+1 it reads and
        # of 1..n-1 it writes; its whole row is buf[i + 1]
        self.ops = [(self.buf[i, :n - 1], self.buf[i, 2:], self.buf[i + 1, 1:n])
                    for i in range(_RESCALE_EVERY)]
        self.halvings = np.ldexp(1.0, -np.arange(_RESCALE_EVERY + 1))[:, None]

    def run(self, k: int) -> None:
        """Step k >= 1 steps from buf[0] into buf[1..k].

        The steps are one np.add each, through one C-level iterator, with no
        Python statement run per step, and the halvings one multiply.
        """
        deque(starmap(np.add, self.ops[:k]), maxlen=0)
        self.buf[1:k + 1] *= self.halvings[1:k + 1]


def _killed_walk(n: int, steps: int):
    """Yield the rows h_n(., s) = P_.[tau_{0,n} > s], s = 0..steps, of the
    walk killed at 0 and n, a run at a time: the rows s0..s0+k of the run's
    k steps, the first the row it starts from.

    The walk is the backward survival recursion from the all-ones vector
    (0 at both ends), one step h(x, s+1) = 0.5 (h(x-1, s) + h(x+1, s)) on
    1..n-1: the rows of the :class:`SurvivalKernel` and of check 05. A last
    row alone, summed against weights, comes from :func:`_killed_sum`. The
    walk steps in runs of _RESCALE_EVERY steps through one
    :class:`_RunBuffer`, whose row 0 holds the row the run starts from, so a
    run's rows depend on its start row alone: the kernel replays a run from
    its start row bit for bit (:meth:`SurvivalKernel._replay`). At n = 2
    every row after the first is zero.

    Each run is a view of the buffer, of shape (k + 1, n + 1), valid until
    the next is asked for; a walk of 0 steps yields the all-ones row alone.
    """
    engine = _RunBuffer(n)
    buf = engine.buf
    buf[0, 1:n] = 1.0
    if not steps:
        yield buf[:1]
    for s0 in range(0, steps, _RESCALE_EVERY):
        k = min(_RESCALE_EVERY, steps - s0)
        if s0:
            buf[0] = buf[_RESCALE_EVERY]
        engine.run(k)
        yield buf[:k + 1]


#: Blocks of _BLOCK steps in one run of :func:`_killed_sum`, between two
#: rescalings. While anything survives, a block keeps at least 2**-_BLOCK of
#: a row's max (the max site's mass along one surviving path), so from a max
#: in [1/2, 1] the max stays a normal double for 31 blocks (a run and the
#: point mass's extra block); the count is even, so every run starts in the
#: same buffer.
_BAND_RUN = 30


def _band_blocks(band: np.ndarray) -> np.ndarray:
    """M[b, i, k]: the mass that row 16b - 16 + i sends to row 16b + k in one
    block of _BLOCK = 32 steps, from the band band[r, j] of the block's
    killed law (:func:`_killed_band`: row r to row r + j - 16), for the
    blocks b of 16 rows that cover the band's rows.

    A walker moves at most 16 rows in a block, so the rows 16b..16b + 15
    read the 48 rows from 16b - 16 on: a row's window there times M[b] is
    the block's step for them, and a stack of rows' windows times M[b] is
    the step of each. Rows off 0..len(band) - 1 send nothing. Every block
    inside the segment is the same binomial band; the corner blocks, by 0
    and n, carry the killing.
    """
    rows, half = len(band), _BLOCK // 2
    r = half * np.arange(-(-rows // half))[:, None, None] - half \
        + np.arange(3 * half)[:, None]
    j = _BLOCK + np.arange(half) - np.arange(3 * half)[:, None]
    mats = band[np.clip(r, 0, rows - 1), np.clip(j, 0, _BLOCK)]
    mats[(r < 0) | (r >= rows) | (j < 0) | (j > _BLOCK)] = 0.0
    return mats


def _killed_sum(n: int, x: int, steps: int, weight) -> tuple[float, int]:
    """(s, e): sum_y P_x[X_steps = y, alive] weight(y) = s 2**e, for the walk
    killed at 0 and n from x, 0 < x < n. ``weight`` maps an array of sites
    y, 0 < y < n, to nonnegative weights; it is called once, on the sites
    of the parity of x + steps in reach.

    The walk meets in the middle. Of the B = steps // 32 full blocks, the
    point mass at x walks ceil(B/2) forward, and the weight row, after the
    short last block of steps % 32 steps, walks the other floor(B/2): the
    killed law is symmetric, P_x[X_L = y, alive] = P_y[X_L = x, alive], so
    moving the weights back through a block is the same band product as
    moving mass forward, and both rows end on the rows r, the sites lo + 2r
    + parity of x. The sum is their dot product. A block takes a row to rows
    within 16, with the exact mass of the killed law K_32
    (:func:`_killed_band`: counts of paths over 2**32), gathered once into
    one 48 x 16 matrix per 16 rows (:func:`_band_blocks`). A block of both
    rows is one batched np.matmul over their overlapping windows of 48 rows,
    two rows a window, from one buffer into the other, with the views of
    both built once; a run of _BAND_RUN blocks goes through one starmap,
    with no Python statement per block, and ends with each row scaled by its
    own power of two, the one that brings its max into [1/2, 1)
    (:func:`_rescale`). When B is odd, the point mass takes its extra block
    first, alone. The short block gathers the weights through its own band.
    Every cell is a sum of nonnegative products, and no array of rows x rows
    is built. Once nothing survives, or no weight is positive, s is 0.

    The walk runs on the sites lo = max(0, x - steps - 1) to min(n, x +
    steps + 1) only, killed at both, so a short walk on a long segment costs
    its length. The sum is unchanged: after its blocks the point mass sits
    within 32 ceil(B/2) of x, and the weight row's walk of the other steps
    from there cannot reach a cut end, more than steps from x, so every cell
    of the weight row that meets the point mass is the one on the whole
    segment.
    """
    lo, hi = max(0, x - steps - 1), min(n, x + steps + 1)
    n, x = hi - lo, x - lo
    parity, rows, half = x % 2, n // 2 + 1, _BLOCK // 2
    blocks, short = divmod(steps, _BLOCK)
    ends = np.zeros(n + 2 + 2 * short)  # the weight of site y at ends[y + short]
    y = np.arange(2 - (parity + short) % 2, n, 2)
    ends[y + short] = weight(lo + y)
    # the short block from row r reads the ends parity + 2r + 2j - short
    step = 2 * ends.itemsize
    reach = as_strided(ends[parity:], (rows, short + 1), (step, step), writeable=False)
    v = (_killed_band(n, short, parity)[:, :, 0, 0] * reach).sum(axis=1)
    e = _rescale(v)
    if e == -math.inf:
        return 0.0, 0
    if not blocks:
        return float(v[x // 2]), e
    mats = _band_blocks(_killed_band(n, _BLOCK, parity)[:, :, 0, 0])
    width = half * len(mats)
    bufs = np.zeros((2, 2, width + 2 * half))  # [buffer, point mass or weights]
    # block b's window: the 48 sites from 16b of both rows, wins[i][b, row]
    wins = [as_strided(buf, (len(mats), 2, 3 * half),
                       (half * buf.strides[1], *buf.strides), writeable=False)
            for buf in bufs]
    outs = [buf[:, half:half + width].reshape(2, -1, half).transpose(1, 0, 2)
            for buf in bufs]
    odd = blocks % 2
    bufs[0, 0, half + x // 2] = 1.0
    bufs[odd, 1, half:half + rows] = v
    if odd:
        np.matmul(wins[0][:, :1], mats, out=outs[1][:, :1])
    ops = [(wins[odd], mats, outs[1 - odd]), (wins[1 - odd], mats, outs[odd])] \
        * (_BAND_RUN // 2)
    at = odd  # the buffer that holds both rows
    for b0 in range(0, blocks // 2, _BAND_RUN):
        k = min(_BAND_RUN, blocks // 2 - b0)
        deque(starmap(np.matmul, ops[:k]), maxlen=0)
        at ^= k % 2
        shifts = _rescale(bufs[at, 0]) + _rescale(bufs[at, 1])
        if shifts == -math.inf:  # nothing survives
            return 0.0, 0
        e += shifts
    return float(np.dot(*bufs[at, :, half:half + rows])), e


def h_dp(n: int, x: int, t: int) -> float:
    """Survival probability P_x[tau_{0,n} > t]: the walk from x summed
    against the weight 1 (:func:`_killed_sum`)."""
    _check_domain(n, x, t)
    if x in (0, n):
        return 0.0
    return math.ldexp(*_killed_sum(n, x, t, np.ones_like))


def h_asymptotic(n: int, x: int, t: int) -> tuple[float, bool]:
    """First-mode value (4/pi) cos^t(pi/n) sin(pi x/n) and a regime flag.

    The flag is False when t is below the (4/pi^2) n^2 ln n horizon, where
    the stated O(n^-2) accuracy is not guaranteed.
    """
    _check_domain(n, x, t)
    # cos(pi/2) = 0 at n = 2: cos^0 is 1 and every higher power 0
    log_c = -math.inf if n == 2 else _log_cos(math.pi / n)
    val = (4.0 / math.pi) * (math.exp(t * log_c) if t else 1.0) \
        * math.sin(math.pi * x / n)
    return val, in_cond_regime(t, n)


def h_over_t1_deviation(n: int, x: int, t: int) -> float:
    """|h_spectral/h_asymptotic - 1|, computed in log domain."""
    log_h = _log_h(n, x, t)
    t1, _ = h_asymptotic(n, x, t)
    if t1 <= 0 or log_h == -math.inf:
        raise ValueError("first-mode comparison needs strictly positive h and T1")
    return abs(math.expm1(log_h - math.log(t1)))


# -- kernel table and the conditioned ring walk --------------------------------

def _log_cos(theta):
    """ln cos(theta) as log1p(-2 sin^2(theta/2)), accurate as theta -> 0.

    theta is a float or an array in [0, pi/2). A float goes through libm,
    whose bits the kernel's cut and settled rows are built with; numpy's
    sin may differ from it in the last place.
    """
    if isinstance(theta, np.ndarray):
        return np.log1p(-2.0 * np.sin(theta / 2) ** 2)
    return math.log1p(-2.0 * math.sin(theta / 2) ** 2)


def _settled_steps(n: int) -> int:
    """Remaining time s* from which h_n(., s) is its two slowest modes.

    The all-ones start excites the odd modes k, whose eigenvalues are
    cos(pi k/n). The slowest, |cos(pi/n)|, belong to k = 1 and, for even n,
    to k = n-1, which carries the parity (-1)^(s+x). The next is lam2 =
    cos(3 pi/n) for even n and cos(2 pi/n) (mode n-2) for odd n, so from
    s* = ceil(53 ln 2 / -ln(lam2 / cos(pi/n))) on, the other modes weigh
    below 2**-53 relative to the slowest ones. Small rings are exact: n <= 4
    has no other mode and n = 6 has lam2 = cos(pi/2) = 0, gone after a step.
    """
    if n <= 4:
        return 0
    if n == 6:
        return 1
    k = 3 if n % 2 == 0 else 2
    return math.ceil(53 * _LN2 / (_log_cos(math.pi / n) - _log_cos(k * math.pi / n)))


def _up_probs(rows: np.ndarray, out: np.ndarray) -> None:
    """out[i, x-1] = rows[i, x+1] / (rows[i, x-1] + rows[i, x+1]) for x =
    1..n-1, in place: the up-steps h(x+1, s) / (2 h(x, s+1)) of the
    consecutive kernel rows s in rows.

    h(x, s+1) is 0.5 (h(x-1, s) + h(x+1, s)), so an up-step reads one row.
    The sum is the add by which the kernel's walk steps (:class:`_RunBuffer`),
    so the divisor is twice the next row, bit for bit, and a ratio of one
    row's cells is the same at any power-of-two scale of the row. At x = 1,
    where the row reads 0 at site 0, the up-step is exactly 1, and at x =
    n-1 exactly 0.
    """
    n = rows.shape[1] - 1
    np.add(rows[:, :n - 1], rows[:, 2:], out=out)
    np.divide(rows[:, 2:], out, out=out)


def _check_budget(need: int, what: str) -> None:
    if need > KERNEL_BYTES_BUDGET:
        raise MemoryError(
            f"{what} need {need} bytes, over the budget of {KERNEL_BYTES_BUDGET} "
            f"(half of physical memory); use h_spectral for point values")


class SurvivalKernel:
    """Survival kernel h_n(x, s) of one ring size at every remaining time s.

    The kernel's row s is h(., s) itself, the killed walk's row of the
    remaining time s <= R (:func:`_killed_walk`). R = min(t_max, s* + 1)
    with s* from :func:`_settled_steps`: from s* on, h(., s) is its two
    slowest modes, so for s > R it is the row r in {R-1, R} with r = s (mod
    2) times cos(pi/n)^(s-r), and the up-step is the time-homogeneous Doob
    step sin(pi(x+1)/n) / (2 cos(pi/n) sin(pi x/n)). The build reads the
    up-step at s = R from row R-1 (an up-step reads one row:
    :func:`_up_probs`), keeps it as the up-step of every s > R, and raises
    RuntimeError where it misses the Doob step. So the conditioned walk can
    be stepped at any time without recomputation.

    The kernel stores the rows R-1 and R, that up-step and the row each run
    of _RESCALE_EVERY steps of the walk starts from; every other row is its
    run replayed from there, bit for bit (:meth:`_h_row`, :meth:`_replay`),
    in a run buffer of 33 rows that each thread reading the kernel builds
    once. Memory is O(n min(t_max, s*) / 32), which must fit in
    KERNEL_BYTES_BUDGET, and a run buffer per reading thread. Immutable
    after construction.
    """

    def __init__(self, n: int, t_max: int):
        _check_domain(n, 0, t_max)
        settled = _settled_steps(n)
        rows = min(t_max, settled + 1)
        runs = max(1, -(-rows // _RESCALE_EVERY))
        _check_budget(8 * (runs + 3) * (n + 1), f"kernel rows for n={n}, t_max={t_max}")
        self.n = n
        self.t_max = t_max
        self.R = rows
        # cos(pi/2) = 0 kills everything in one step at n = 2
        self._log_cos = -math.inf if n == 2 else _log_cos(math.pi / n)
        self._starts = np.empty((runs, n + 1))
        for j, run in enumerate(_killed_walk(n, rows)):
            self._starts[j] = run[0]
        self._last = run[-2:].copy()  # the rows R-1 and R (row 0 alone if R = 0)
        # each thread replays runs in its own buffer, built when it first
        # replays one (:meth:`_replay`)
        self._engines = threading.local()
        # the up-step at every s > R, read from row R-1 (0 where no s > R
        # is read, or at n = 2)
        self._doob = np.zeros(n + 1)
        if rows > settled and n > 2:
            _up_probs(self._last[:1], self._doob[None, 1:n])
            # rounding in the rows grows like n**2 eps: the gap measured up
            # to n = 400 stays below 0.13 n**2 eps
            x = np.arange(1, n)
            doob = np.sin(np.pi * (x + 1) / n) \
                / (2 * math.cos(math.pi / n) * np.sin(np.pi * x / n))
            gap = float(np.max(np.abs(self._doob[1:n] - doob)))
            if not gap <= n * n * np.finfo(float).eps:
                raise RuntimeError(
                    f"kernel row {rows} of n={n} is not settled: its up-step "
                    f"is {gap:.3g} from the Doob step")

    def _replay(self, j: int, steps: int = _RESCALE_EVERY) -> np.ndarray:
        """The rows s0..s0+k of run j of the kernel's walk, s0 = 32 j, for
        its first k = min(steps, the run's length) steps, replayed from its
        stored start row, bit for bit those of the build: a view of the
        calling thread's run buffer, valid until that thread replays again.
        Run j must hold a step (s0 < R), and steps be at least 1."""
        engine = getattr(self._engines, "engine", None)
        if engine is None:
            engine = self._engines.engine = _RunBuffer(self.n)
        k = min(steps, _RESCALE_EVERY, self.R - _RESCALE_EVERY * j)
        engine.buf[0] = self._starts[j]
        engine.run(k)
        return engine.buf[:k + 1]

    def _h_row(self, r: int) -> np.ndarray:
        """Row r <= R of the kernel: stored, or replayed with its run. The
        caller must not write it."""
        if r > self.R - len(self._last):
            return self._last[r - self.R - 1]
        j, i = divmod(r, _RESCALE_EVERY)
        if not i:
            return self._starts[j]
        return self._replay(j, i)[i].copy()

    def _row(self, t: int) -> tuple[int, float]:
        """(r, log_c) with h(., t) = kernel row r times exp(log_c): (t, 0.0)
        up to R, and past it the stored row of t's parity times a power of
        cos(pi/n)."""
        if t <= self.R:
            return t, 0.0
        r = self.R - (t - self.R) % 2
        return r, (t - r) * self._log_cos

    def h(self, x: int, t: int) -> float:
        _check_domain(self.n, x, t)
        if t > self.t_max:
            raise ValueError(f"horizon {t} exceeds table horizon {self.t_max}")
        r, log_c = self._row(t)
        return float(self._h_row(r)[x] * math.exp(log_c))

    def _check_start(self, x0: int, t: int) -> None:
        """Raise ValueError unless a conditioned walk can run t steps from x0.

        t must be within the table's horizon, x0 in 1..n-1 and h_n(x0, t) > 0.
        """
        if t > self.t_max:
            raise ValueError(f"horizon {t} exceeds table horizon {self.t_max}")
        if not 0 < x0 < self.n:
            raise ValueError(f"need 0 < x0 < n, got x0={x0}, n={self.n}")
        if self._h_row(self._row(t)[0])[x0] == 0.0:
            raise ValueError("conditioning on survival is impossible from this start")

    def _step_up_table(self) -> np.ndarray:
        """Up-step probabilities h(x+1, s-1) / (2 h(x, s)) as P[s, x].

        Row 0 and the killed columns 0 and n are 0, and so is every entry at
        n = 2, where h(1, s) = 0 for s >= 1. Row s <= R reads the kernel row
        s-1 alone (:func:`_up_probs`), each run of the kernel's walk
        replayed once (:meth:`_replay`); the rows past R are the kept Doob
        step. O(n t_max) memory, checked with the stored rows against
        KERNEL_BYTES_BUDGET before it is allocated; the path sampler reads
        one run's rows at a time from :meth:`_up_rows` instead, and the
        batch walk one kernel row a law (:func:`_h_transform`).
        """
        n, t, r = self.n, self.t_max, self.R
        stored = sum(a.nbytes for a in (self._starts, self._last, self._doob))
        _check_budget(stored + 8 * (t + 1) * (n + 1),
                      f"kernel and step tables for n={n}, t_max={t}")
        p = np.zeros((t + 1, n + 1))
        if n > 2:
            for j in range(-(-r // _RESCALE_EVERY)):
                rows = self._replay(j)[:-1]
                s0 = _RESCALE_EVERY * j
                _up_probs(rows, p[s0 + 1:s0 + 1 + len(rows), 1:n])
        p[r + 1:] = self._doob
        return p

    def _up_rows(self, t: int):
        """The rows P[s] of :meth:`_step_up_table` for s = t, t-1, ..., 1, in
        that order, in blocks of at most _BLOCK rows of shape (k, n+1).

        The sites 0 and n read 0, and a time past the stored row R reads the
        kept Doob step. At or below R a block is the up-steps of one run of
        the kernel's walk, s = s0+1..s0+k from its rows s0..s0+k-1, each run
        replayed once (:meth:`_replay`). The up-step at x = 1 must be exactly
        1 and at x = n-1 exactly 0, so that no walker leaves 1..n-1; a build
        where either is not raises RuntimeError.
        """
        n, R = self.n, self.R
        top = min(t, R)

        def checked(up: np.ndarray) -> np.ndarray:
            if not ((up[..., 1] == 1.0).all() and (up[..., n - 1] == 0.0).all()):
                raise RuntimeError(f"up-steps of n={n} at the edge sites 1 and {n - 1} "
                                   "are not exactly 1 and 0")
            return up

        if t > R:
            doob = checked(self._doob)
            for s in range(t, R, -_BLOCK):
                yield np.broadcast_to(doob, (min(_BLOCK, s - R), n + 1))
        for j in range((top - 1) // _RESCALE_EVERY, -1, -1):
            s0 = _RESCALE_EVERY * j
            rows = self._replay(j)[:min(top - s0, _RESCALE_EVERY)]
            out = np.zeros((len(rows), n + 1))
            _up_probs(rows, out[:, 1:n])
            yield checked(out)[::-1]


def ring_time_scale(n: int, alpha: float) -> int:
    """Horizon floor(alpha n^3 / (2 pi^2)) matching interlacement level alpha."""
    if n < 2 or not alpha > 0:
        raise ValueError(f"need n >= 2 and alpha > 0, got n={n}, alpha={alpha}")
    t = int(alpha * n**3 / (2 * math.pi**2))
    if t == 0:
        warnings.warn(f"degenerate horizon 0 for n={n}, alpha={alpha}", stacklevel=2)
    return t


def sample_ring_path(n: int, t_total: int, x0: int, rng: RngState) -> WalkPath:
    """One trajectory of the conditioned ring walk from x0, all t_total steps.

    Each step draws one uniform and steps up iff it is below the up-step of
    the walker's site with the steps still to go, read from the kernel's
    :meth:`~SurvivalKernel._up_rows` one block of at most _BLOCK steps at a
    time.
    Raises ValueError where :meth:`SurvivalKernel._check_start` does.
    """
    if t_total < 0:
        raise ValueError(f"need t_total >= 0, got {t_total}")
    kernel = SurvivalKernel(n, t_total)
    kernel._check_start(x0, t_total)
    gen = rng.generator()
    pos = [x0]
    for rows in kernel._up_rows(t_total):
        for row, u in zip(rows, gen.random(len(rows))):
            x = pos[-1]
            pos.append(x + 1 if u < row[x] else x - 1)
    return WalkPath(tuple(pos))


def _block_recursion(mass: np.ndarray, first: int, steps: int, killed: tuple[int, ...],
                     visit: int | None = None) -> np.ndarray:
    """w[c, r, j]: the simple walk killed at the sites ``killed`` over one
    block, from the rows r at first + 2r with mass[r], after ``steps``
    steps with j up-steps and c visits to visit (one slot per arrival time
    on its parity, and one more; one slot without a visit site).

    Each step halves every cell and adds it to the next slot, zeroes the
    cells on the killed sites and moves those on visit one slot up the c
    axis. From a mass of 1, every cell after i steps is a count of at most
    2**i paths times 2**-i, exact for at most 32 steps. The steps run on the
    flat w[c, r*J + j], J = steps + 1: no up-step crosses a row, as none
    sits at j = J - 1 before the last step, and the cells on a site y after
    i steps, r + j = (y - first + i) / 2, are every (J - 1)-th slot.
    """
    count, span = len(mass), steps + 1
    slots = 1 if visit is None else 1 + (steps + (first - visit) % 2) // 2
    w = np.zeros((slots, count * span))
    w[0, ::span] = mass

    def on_site(y: int, i: int) -> slice | None:
        """The flat cells of w on site y after i steps, or None."""
        c, off = divmod(y - first + i, 2)
        r0, r1 = max(c - i, 0), min(c, count - 1)
        if off or r1 < r0:
            return None
        return slice(r0 * span + c - r0, r1 * span + c - r1 + 1, span - 1)

    live_c = 1  # visit counts reachable so far
    for i in range(1, steps + 1):
        live = w[:live_c]
        live *= 0.5
        live[:, 1:] += live[:, :-1]  # numpy buffers the overlapping input
        for y in killed:
            if (cells := on_site(y, i)) is not None:
                w[:, cells] = 0.0
        if visit is not None and (visit - first + i) % 2 == 0:
            if (cells := on_site(visit, i)) is not None:
                w[1:live_c + 1, cells] = w[:live_c, cells]
                w[0, cells] = 0.0
            live_c += 1
    return w.reshape(len(w), count, span)


def _killed_band(n: int, steps: int, parity: int, visit_site: int | None = None,
                 stay_in: tuple[int, int] | None = None) -> np.ndarray:
    """K[r, d, c, f]: 2**-steps times the number of paths of ``steps`` <=
    _BLOCK steps that stay in 1..n-1, from the site x = 2r + parity with d
    up-steps, so to the site x + 2d - steps, with c visits to visit_site at
    the arrival times 1..steps and f = 1 if they sat on a bound of stay_in
    at one of them. Rows whose start is off 1..n-1 are 0, and so is every
    cell whose end is. More than _BLOCK steps raise ValueError.

    Without a mark the counts are in closed form, by the method of images
    (Feller, vol. 1, III and XIV): from x, the paths of L = steps steps with
    d up-steps that stay in 1..n-1 number sum_k [C(L, d + kn) - C(L, x + d +
    kn)] over every integer k, the binomial row folded mod n read at d and
    at x + d, as :func:`~ri1d.core_walks._absorb_law` reads it. With a mark
    they come from one :func:`_block_recursion` of the simple walk from the
    rows x = 2r + parity, 0 <= r <= n/2, killed at 0 and n; with stay_in =
    (a, b), f = 0 is the recursion killed at 0, n, a and b, and f = 1 the
    law killed at 0 and n minus it. Either way every count is an integer
    below 2**32, so every cell, a count times 2**-steps, is exact, and so is
    the difference.
    """
    if steps > _BLOCK:
        raise ValueError(f"a killed band has at most {_BLOCK} steps, got {steps}")
    x = 2 * np.arange(n // 2 + 1) + parity
    if visit_site is None and not stay_in:
        fold = np.bincount(np.arange(steps + 1) % n, minlength=n,
                           weights=[math.comb(steps, d) for d in range(steps + 1)])
        ext = fold[np.arange(n + steps + 2) % n]  # fold[i % n] for every x + d
        count = ext[:steps + 1] - as_strided(ext[parity:], (len(x), steps + 1),
                                             (2 * ext.itemsize, ext.itemsize),
                                             writeable=False)
        # only a start within steps of 0 or n, or off the segment, can end off it
        edge = np.flatnonzero((x <= steps) | (x >= n - steps))
        end = x[edge, None] + 2 * np.arange(steps + 1) - steps
        count[edge] = np.where((x[edge, None] >= n) | (end <= 0) | (end >= n), 0.0,
                               count[edge])
        return np.ldexp(count, -steps, out=count)[:, :, None, None]
    mass = (0 < x) & (x < n)
    w = _block_recursion(mass, parity, steps, (0, n), visit_site)[..., None]
    if stay_in:
        inside = _block_recursion(mass, parity, steps, (0, n, *stay_in), visit_site)
        w = np.concatenate((inside[..., None], w - inside[..., None]), axis=-1)
    return w.transpose(1, 2, 0, 3)


def _killed_block(n: int, steps: int, parity: int, visit_site: int | None,
                  stay_in: tuple[int, int] | None) -> np.ndarray:
    """K[r, e, c, f]: the killed law of :func:`_killed_band`, from row r to
    the end row e (:func:`_by_end_row`)."""
    return _by_end_row(_killed_band(n, steps, parity, visit_site, stay_in))


def _by_end_row(law: np.ndarray) -> np.ndarray:
    """The law law[r, e, c, f] from row r to end row e of a block law
    law[r, d, c, f] by up-step count over steps = law.shape[1] - 1 steps: d
    up-steps take row r, the site x = 2r + parity, to e = r + d - steps // 2,
    the site x + 2d - steps = 2e + parity - steps % 2 (an odd step count is
    the short last block, whose end row no law reads).

    One slice copy a row, into a zero array of the result's shape: row r's
    d lands in column r + d - steps // 2, for the d that keep it in 0..rows
    - 1. The walk never leaves the rows, so no mass is dropped.
    """
    rows, width = law.shape[:2]
    half = (width - 1) // 2
    out = np.zeros((rows, rows) + law.shape[2:])
    for r in range(rows):
        lo, hi = max(0, half - r), min(width, rows + half - r)
        out[r, r + lo - half:r + hi - half] = law[r, lo:hi]
    return out


def _compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The law of a's steps then b's, both laws w[r, e, c, f] by end row.

    The rows compose through a's end row, which is b's start, the visit
    counts add (a convolution along c) and the contact flags or. Every cell
    is a sum of nonnegative products: one matrix product over the middle row
    per slot (c, f) of a, added into the slots c..c + len(b's c axis) - 1.
    """
    rows, _, slots, flags = a.shape
    out = np.zeros((rows, rows, slots + b.shape[2] - 1, flags))
    rest = b.reshape(rows, -1)
    for c in range(slots):
        dst = out[:, :, c:c + b.shape[2]]
        dst += (a[:, :, c, 0] @ rest).reshape(b.shape)
        if flags > 1:
            dst[..., 1] += (a[:, :, c, 1] @ rest).reshape(b.shape).sum(axis=3)
    return out


def _h_transform(kernel: SurvivalKernel, law: np.ndarray, s1: int,
                 first: int) -> np.ndarray:
    """The conditioned law of a stretch that ends with s1 steps to go, from
    the killed law law[r, e, c, f] of its steps (:func:`_killed_block`, in
    any positive scale): law[r, e, c, f] h(y, s1) / h(x, s1 + steps), with
    the end row e at the site y = first + 2e.

    The conditioned walk is the walk killed at 0 and n, reweighted by h (a
    Doob h-transform): its up-step from x with s to go is h(x+1, s-1) /
    (2 h(x, s)), so along a path that stays in 1..n-1 the steps telescope to
    2**-steps h(y, s1) / h(x, s1 + steps). The killed walk's own step makes
    the denominator the sum of the killed law times h(y, s1) over row r's
    outcomes, so each row is that product, one broadcast multiply by the
    kernel row of s1 (:meth:`SurvivalKernel._row`, read by
    :meth:`SurvivalKernel._h_row`), divided by its sum: the law's sums over
    the marks, times h, summed over the end row. The law's scale cancels,
    and so does the power of cos(pi/n) that h carries past the stored rows:
    the law reads h at its end alone, takes no exp, and every row sums to 1
    within the rounding of its sum. Rows whose site is off 1..n-1 stay 0.
    """
    n, rows = kernel.n, law.shape[0]
    r, _ = kernel._row(s1)
    y = 2 * np.arange(rows) + first
    on = (0 < y) & (y < n)
    h = np.zeros(rows)
    h[on] = kernel._h_row(r)[y[on]]
    total = law.sum(axis=(2, 3)) @ h
    total[total == 0.0] = 1.0  # the rows off the segment
    out = law * h[:, None, None]
    out /= total[:, None, None, None]
    return out


def _block_laws(kernel: SurvivalKernel, x0: int, t: int, visit_site: int | None,
                stay_in: tuple[int, int] | None):
    """The super-block schedule of a t-step walk from x0: (steps, law, draws).

    Yields laws law[r, e, c, f] in walk order, each of ``steps`` steps and to
    be drawn ``draws`` times in a row, every one by end row: a walker in row
    r ends in row e, the layout :func:`_compose` composes. Every law is the
    killed law of its steps, h-transformed to its stretch of the walk
    (:func:`_h_transform`). The killed law of 2**j full blocks is the
    block's exact one (:func:`_killed_block`) composed with itself by j
    doublings, each rescaled by the exact power of two that brings its max
    into [1/2, 1), so that no power underflows. The doubling stops at the
    top power J, where the next power would pass the t // 32 full blocks or
    twice its count would pass _BATCH_CELLS; the count is rows x the moves
    the power can reach (at most 2 rows - 1) x its slots. That cap stops
    check 08's visit walk, whose c axis grows 16 slots a block, at 4 blocks;
    the vacant walks' laws never grow, so they double up to the full blocks.

    The walk takes the top power (t // 32) >> J times, then one super-block
    per set bit of the full blocks below J, in descending order, then the
    short last block, with its own killed law and h(., 0) = 1. A law reads
    h only at its end, and every end at or past the kernel's row R - 1
    reads the stored row of t's parity: the top powers that end there share
    one law, drawn once per super-block. Each law is built when the walk
    asks for it and held by no one here, so a walk holds the powers, one law
    and one table.
    """
    n, parity = kernel.n, x0 % 2
    blocks, short = divmod(t, _BLOCK)
    if blocks:
        powers = [_killed_block(n, _BLOCK, parity, visit_site, stay_in)]
        rows, _, slots, flags = powers[0].shape

        def cells(k: int) -> int:
            """Rows x moves that k blocks can reach x slots of their law."""
            return rows * min(2 * rows - 1, _BLOCK * k + 1) * (k * (slots - 1) + 1) * flags

        top = 0
        while 2 << top <= blocks and 2 * cells(2 << top) <= _BATCH_CELLS:
            powers.append(_compose(powers[top], powers[top]))
            _rescale(powers[-1])
            top += 1
        steps = _BLOCK << top
        # super-block i = 0, 1, ... ends at t - (i + 1) steps >= R - 1
        shared = min(blocks >> top, max(0, (t - kernel.R + 1) // steps))
        if shared:
            yield steps, _h_transform(kernel, powers[top], t - steps, parity), shared
        s1 = t - shared * steps  # steps to go at the end of the last law
        for j in [top] * ((blocks >> top) - shared) + \
                [j for j in range(top - 1, -1, -1) if blocks >> j & 1]:
            s1 -= _BLOCK << j
            yield _BLOCK << j, _h_transform(kernel, powers[j], s1, parity), 1
        del powers
    if short:
        yield short, _h_transform(kernel, _killed_block(n, short, parity, visit_site, stay_in),
                                  0, parity - short % 2), 1


def _ring_paths_batch(kernel: SurvivalKernel, x0: int, t: int, M: int,
                      gen: np.random.Generator, visit_site: int | None = None,
                      stay_in: tuple[int, int] | None = None):
    """M conditioned ring paths, vectorized over replicates, in super-blocks.

    Returns (visit counts at visit_site over times 1..t, indicator that the
    whole path, start included, stays strictly inside the open interval
    stay_in); either may be None when not requested. The walk takes the
    laws of :func:`_block_laws` in order: super-blocks of 2**j blocks of
    _BLOCK steps, the top power first and the set bits of the rest after
    it, then the short last block. Per draw of a law each walker draws one
    uniform, in walker order, and takes its outcome (end row, visits,
    whether it sat on a bound) from the law by inverse CDF. Every law starts
    on the parity of x0, so a walker is its row r = x // 2 in the law, and
    its outcome's end row is its row in the next. The search,
    :func:`~ri1d.core_walks._search` over the row's running sums
    (:func:`~ri1d.core_walks._search_table`), reads the table's guide and
    places most walkers with one gather and one compare; the rest take a
    fixed-depth binary search over their row. The absorbing walk of
    :mod:`ri1d.core_walks` shares both.

    The walk builds one search table per law and takes it for the law's
    draws, and frees law and table before it asks for the next. So memory
    on top of the kernel is the killed-law powers, one law, one table and
    O(M).

    Raises ValueError where :meth:`SurvivalKernel._check_start` does.
    """
    kernel._check_start(x0, t)
    visits = np.zeros(M, dtype=np.int64) if visit_site is not None else None
    inside = np.full(M, stay_in[0] < x0 < stay_in[1]) if stay_in is not None else None
    row = np.full(M, x0 // 2, dtype=np.intp)
    pos = np.empty(M, dtype=np.intp)
    bit = np.empty(M, dtype=np.intp)
    u = np.empty(M)
    thr = np.empty(M)
    keep = np.empty(M, dtype=bool)
    for _, law, draws in _block_laws(kernel, x0, t, visit_site, stay_in):
        cdf, guide, k, end, c, f = _search_table(law)
        del law
        for _ in range(draws):
            gen.random(out=u)
            _search(cdf, guide, k, row, u, pos, thr, bit)
            # every outcome is in its table, so mode="clip" never clips; it
            # skips the bounds check
            if visits is not None:
                visits += c.take(pos, out=bit, mode="clip")
            if inside is not None:
                np.equal(f.take(pos, out=bit, mode="clip"), 0, out=keep)
                inside &= keep
            end.take(pos, out=row, mode="clip")
        del cdf, guide, end, c, f  # before the next law is built
    return visits, inside


def vacant_prob_ring_exact(n: int, t: int, x0: int, a: int, b: int) -> float:
    """Exact P[ring interval [-a, b] unvisited] under the t-horizon ring law.

    Avoiding {-a..b} on the ring means the segment walk from x0 stays inside
    (b, n-a), so the probability is the two-point kernel ratio
    h_{n-a-b}(x0-b, t) / h_n(x0, t).
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError(f"need a,b >= 0 with a+b >= 1, got a={a}, b={b}")
    if not b < x0 < n - a:
        raise ValueError(f"need b < x0 < n-a, got x0={x0}, a={a}, b={b}, n={n}")
    if t == 0:
        return 1.0
    return math.exp(_log_h(n - a - b, x0 - b, t) - _log_h(n, x0, t))


def ring_local_time_batch(n_half: int, alpha: float, x: int, M: int,
                          gen: np.random.Generator) -> np.ndarray:
    """Visits to x of M conditioned walks on the ring of 2*n_half sites.

    Each walk starts at n_half, runs for t = ring_time_scale(2 n_half, alpha)
    = floor(4 alpha n_half^3 / pi^2) steps, and counts its visits at times
    1..t (the start is not counted).
    """
    if n_half < 2 or not 0 < x < 2 * n_half:
        raise ValueError(f"need n_half >= 2 and 0 < x < 2*n_half, got "
                         f"n_half={n_half}, x={x}")
    t = ring_time_scale(2 * n_half, alpha)
    kernel = SurvivalKernel(2 * n_half, t)
    visits, _ = _ring_paths_batch(kernel, n_half, t, M, gen, visit_site=x)
    return visits


# -- exact checks of the asymptotic formulas ------------------------------------

def verify_pi4(n: int, delta: int, a: int) -> tuple[float, bool]:
    """E_a[sin(pi X_delta / n) | survival in (0,n)], computed exactly.

    sin(pi x/n) is an eigenvector of the killed walk with eigenvalue
    cos(pi/n), so the value is cos^delta(pi/n) sin(pi a/n) / h_n(a, delta).
    The numerator is (n/2) tan(pi/2n) times the first spectral term of h, so
    the rounding of delta * log cos(pi/n) cancels in the ratio. In the
    first-mode regime the value is (1 + O(n^-2)) * pi/4 independently of a;
    the boolean flags whether delta reaches that regime.
    """
    if not 1 <= a <= n - 1:
        raise ValueError(f"need 1 <= a <= n-1, got a={a}, n={n}")
    log_h = _log_h(n, a, delta)
    if log_h == -math.inf:
        raise ValueError(f"conditioning on survival is impossible: "
                         f"h_n(a, delta) = 0 at n={n}, delta={delta}")
    log_first = float(_spectral_log_terms(n, a, delta)[0][0])
    val = (n / 2) * math.tan(math.pi / (2 * n)) * math.exp(log_first - log_h)
    return val, in_cond_regime(delta, n)


def _first_leg_prob(n: int, x0: int, t: int, delta: int, kill: int) -> float:
    """P[the first delta steps from x0 avoid kill] under the t-horizon law.

    The killed site cuts the segment in two and the walk from x0 never
    leaves its part, [kill, n] when x0 > kill and [0, kill] otherwise, so
    the probability is sum_z P_x0[X_delta = z, alive] h_n(z, t-delta) /
    h_n(x0, t) with the walk killed at the part's ends: one
    :func:`_killed_sum` on the part, its weights h_n(., t-delta) from the
    spectral sum scaled by their max, which the result puts back in log
    domain. Every weight is positive.
    """
    lo, hi = (kill, n) if x0 > kill else (0, kill)
    top = -math.inf

    def weight(z: np.ndarray) -> np.ndarray:
        nonlocal top
        log_h = _log_h(n, lo + z, t - delta)
        top = log_h.max(initial=-math.inf)
        return np.exp(log_h - top)

    s, e = _killed_sum(hi - lo, x0 - lo, delta, weight)
    if s == 0.0:
        return 0.0
    return math.exp(e * _LN2 + math.log(s) + top - _log_h(n, x0, t))


def no_hit_prob_exact(n_half: int, t: int, delta: int, x: int):
    """P[x unvisited during the first delta steps] for the conditioned ring walk.

    Ring of 2*n_half sites, start n_half, horizon t. Returns (exact value,
    asymptotic exp(-delta x pi^2 / (8 n^3)), regime flag); the flag requires
    both delta and t - delta to reach the first-mode regime for size 2n.
    """
    n2 = 2 * n_half
    if not 0 < x < n_half:
        raise ValueError(f"need 0 < x < n_half, got x={x}, n_half={n_half}")
    if not 0 <= delta <= t:
        raise ValueError(f"need 0 <= delta <= t, got delta={delta}, t={t}")
    asym = math.exp(-delta * x * math.pi**2 / (8 * n_half**3))
    ok = in_cond_regime(delta, n2) and in_cond_regime(t - delta, n2)
    if delta == 0:
        return 1.0, asym, ok
    return _first_leg_prob(n2, n_half, t, delta, x), asym, ok


def mid_tail_check(n_half: int, t: int, delta: int, x: int):
    """(exact, bound) for the mid-interval escape tail of the ring walk.

    Exact P[the walk from x stays below n_half for delta steps] under the
    t-horizon conditioned law on the ring of 2*n_half sites, against the
    bound (8/pi) cos(pi x / 2n) exp(-3 pi^2 delta / (8 n^2)).
    """
    n2 = 2 * n_half
    if not 1 < x < n_half:
        raise ValueError(f"need 1 < x < n_half, got x={x}, n_half={n_half}")
    if not 0 <= delta <= t:
        raise ValueError(f"need 0 <= delta <= t, got delta={delta}, t={t}")
    bound = (8 / math.pi) * math.cos(math.pi * x / (2 * n_half)) \
        * math.exp(-3 * math.pi**2 * delta / (8 * n_half**2))
    if delta == 0:
        return 1.0, bound
    return _first_leg_prob(n2, x, t, delta, n_half), bound

