"""Survival kernels h_n(x,t) for the walk killed at {0,n} and the ring walk.

The ring of n sites with a forbidden origin is represented as the segment
{1..n-1} with killing at 0 and n (ring site -a is line site n-a). One
killed-walk step, :func:`_killed_steps`, computes every exact ring quantity:
the simple walk killed at 0, n and optional extra sites, stepped in place as
unhalved sums with its scale carried as an exact power of two. Run backward
from the all-ones vector it gives h_n(x,t) = P_x[tau_{0,n} > t] (:func:`h_dp`
and the :class:`SurvivalKernel` table); run forward from a point mass it
gives the killed propagation behind the asymptotic verification checks.
Point values also have closed forms: the odd-mode spectral sum in signed log
domain, and the first-mode asymptotic (4/pi) cos^t(pi/n) sin(pi x/n), valid
once t >= (4/pi^2) n^2 ln n. On top of the kernel table sit the
time-inhomogeneous conditioned ring walk and its exact vacant-set and
local-time functionals.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .config import in_cond_regime
from .core_walks import WalkPath
from .rngs import RngState

#: Memory budget in bytes for a kernel table plus its up-step table: half of
#: the physical memory.
KERNEL_BYTES_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2


# -- point values and the killed-walk step -------------------------------------

def _check_domain(n: int, x: int, t: int) -> None:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 0 <= x <= n:
        raise ValueError(f"need 0 <= x <= n, got x={x}, n={n}")
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")


def _spectral_log_terms(n: int, x, t: int):
    """Per-mode (log|term|, sign) of the killed-walk spectral sum.

    x may be a scalar or an array; returns arrays broadcast over modes along
    the last axis. Each term is (2/n) cos^t(theta_j) cot(theta_j/2)
    sin(x theta_j) with theta_j = pi(2j-1)/n, j = 1..floor(n/2); cos^t is
    carried as t*ln|cos| with explicit sign tracking so horizons up to 1e7
    cannot underflow. A negative t raises ValueError.
    """
    if t < 0:
        raise ValueError(f"need t >= 0, got {t}")
    j = np.arange(1, n // 2 + 1, dtype=np.float64)
    theta = np.pi * (2 * j - 1) / n
    c = np.cos(theta)
    with np.errstate(divide="ignore"):
        log_c = np.log(np.abs(c))
        # t == 0 must give log 1 even for the cos = 0 mode (0 * -inf trap)
        pow_part = t * log_c if t > 0 else np.zeros_like(log_c)
    cot_half = 1.0 / np.tan(theta / 2)  # positive: theta/2 in (0, pi/2)
    s = np.sin(np.multiply.outer(np.asarray(x, dtype=np.float64), theta))
    with np.errstate(divide="ignore"):
        log_abs = (pow_part + np.log(cot_half) + math.log(2.0 / n)
                   + np.log(np.abs(s)))
    sign = np.sign(s) * np.where(c < 0, (-1.0) ** t, 1.0)
    return log_abs, sign


def h_spectral_log(n: int, x, t: int):
    """(log|h|, sign) from the spectral sum; sign 0 encodes an exact zero."""
    log_abs, sign = _spectral_log_terms(n, x, t)
    return logsumexp(log_abs, b=sign, axis=-1, return_sign=True)


def h_spectral(n: int, x: int, t: int) -> float:
    """Survival probability via the odd-mode spectral sum, in signed log domain.

    The killed sites x = 0 and x = n give exactly 0.0. At any other x the
    sum is positive, so a negative value is cancellation and raises
    RuntimeError. Rounding above 1 (at most 1.8e-15 for n < 60, t < 80) is
    capped at 1.0.
    """
    _check_domain(n, x, t)
    if x in (0, n):
        return 0.0
    log_abs, sign = h_spectral_log(n, x, t)
    if sign < 0:
        raise RuntimeError(f"spectral sum is negative at n={n}, x={x}, t={t} "
                           f"(cancellation)")
    return min(float(sign * np.exp(log_abs)), 1.0)


#: Steps between two rescalings in :func:`_killed_steps`. One unhalved step
#: at most doubles the max, so it stays below 2**32 between rescalings.
_RESCALE_EVERY = 32
_LN2 = math.log(2.0)


def _killed_steps(v: np.ndarray, steps: int, extra_kill: tuple[int, ...] = ()):
    """Yield (v, log_z) after each of ``steps`` steps of the killed walk.

    One step maps v to 0.5 (v[x-1] + v[x+1]) on 1..n-1 (n = len(v) - 1) and
    to 0 at 0, n and the extra_kill sites; the input v is nonnegative and
    read as 0 at those sites. The walk is symmetric, so this is both the
    backward survival recursion and the forward transport of a distribution.

    Each yielded v stands for v * exp(log_z) with log_z = e * ln 2 for an
    integer e. A step stores the unhalved sums v[x-1] + v[x+1] and counts the
    factor 1/2 in e, so the add is the only rounding. At the first step,
    every _RESCALE_EVERY steps after it and at the last step, v is scaled by
    the exact power of two that brings its max into [1/2, 1). Only the first
    step can kill everything: a live site with a live neighbour keeps both
    alive, so after it the max never falls. Once nothing survives, v is zero
    and log_z is -inf.

    Every yielded v is one of two buffers that later steps overwrite; copy it
    to keep it.
    """
    n = len(v) - 1
    kill = list(extra_kill)
    a, b = np.zeros(n + 1), np.zeros(n + 1)  # ends 0 and n are never written
    a[1:n] = v[1:n]
    a[kill] = 0.0
    # each buffer with its views of the sites x-1, x+1 and x, for x in 1..n-1;
    # source and target swap after every step
    src, dst = (a, a[:n - 1], a[2:], a[1:n]), (b, b[:n - 1], b[2:], b[1:n])
    e = 0
    for step in range(steps):
        np.add(src[1], src[2], out=dst[3])
        w = dst[0]
        for k in kill:
            w[k] = 0.0
        src, dst = dst, src
        e -= 1
        if step % _RESCALE_EVERY == 0 or step == steps - 1:
            m = w.max()
            if m == 0.0:
                for _ in range(step, steps):
                    yield w, -math.inf
                return
            shift = math.frexp(m)[1]
            np.ldexp(w, -shift, out=w)
            e += shift
        yield w, e * _LN2


def h_dp(n: int, x: int, t: int) -> float:
    """Survival probability via the exact killed-walk recursion."""
    _check_domain(n, x, t)
    v = np.ones(n + 1)
    v[0] = v[n] = 0.0
    log_z = 0.0
    for v, log_z in _killed_steps(v, t):
        pass
    return float(v[x] * math.exp(log_z))


def h_asymptotic(n: int, x: int, t: int) -> tuple[float, bool]:
    """First-mode value (4/pi) cos^t(pi/n) sin(pi x/n) and a regime flag.

    The flag is False when t is below the (4/pi^2) n^2 ln n horizon, where
    the stated O(n^-2) accuracy is not guaranteed.
    """
    _check_domain(n, x, t)
    val = (4.0 / math.pi) * math.exp(t * math.log(math.cos(math.pi / n))) \
        * math.sin(math.pi * x / n)
    return val, in_cond_regime(t, n)


def h_over_t1_deviation(n: int, x: int, t: int) -> float:
    """|h_spectral/h_asymptotic - 1|, computed in log domain."""
    log_h, sign = h_spectral_log(n, x, t)
    t1, _ = h_asymptotic(n, x, t)
    if t1 <= 0 or sign <= 0:
        raise ValueError("first-mode comparison needs strictly positive h and T1")
    return abs(math.expm1(float(log_h) - math.log(t1)))


# -- kernel table and the conditioned ring walk --------------------------------

class SurvivalKernel:
    """Survival kernel h_n(x, s) of one ring size at every remaining time s.

    Stores the killed-walk vector of every remaining time s <= t_max, scaled
    by a power of two to a max below 2**32, and its log scale: row s times
    exp(_log_z[s]) is h(., s). So the conditioned walk can be stepped at any
    time without recomputation. Memory is O(n t_max); the table and the
    up-step table the samplers derive from it must fit in KERNEL_BYTES_BUDGET
    together. Immutable after construction.
    """

    def __init__(self, n: int, t_max: int):
        _check_domain(n, 0, t_max)
        need = 8 * (t_max + 1) * (2 * (n + 1) + 1)
        if need > KERNEL_BYTES_BUDGET:
            raise MemoryError(
                f"kernel and step tables for n={n}, t_max={t_max} need {need} "
                f"bytes, over the budget of {KERNEL_BYTES_BUDGET} (half of "
                f"physical memory); use h_spectral for point values")
        self.n = n
        self.t_max = t_max
        v = np.ones(n + 1)
        v[0] = v[n] = 0.0
        self._table = np.empty((t_max + 1, n + 1))
        self._table[0] = v
        self._log_z = np.zeros(t_max + 1)
        for s, (v, log_z) in enumerate(_killed_steps(v, t_max), 1):
            self._table[s] = v
            self._log_z[s] = log_z

    def h(self, x: int, t: int) -> float:
        _check_domain(self.n, x, t)
        if t > self.t_max:
            raise ValueError(f"horizon {t} exceeds table horizon {self.t_max}")
        return float(self._table[t, x] * math.exp(self._log_z[t]))

    def _step_up_table(self) -> np.ndarray:
        """Up-step probabilities h(x+1, s-1) / (2 h(x, s)) as P[s, x].

        Row 0 and the killed columns 0 and n are 0, and so is every entry at
        n = 2, where h(1, s) = 0 for s >= 1. Built in place, so the peak
        memory is the table itself, as KERNEL_BYTES_BUDGET counts it.
        """
        n, t = self.n, self.t_max
        p = np.zeros((t + 1, n + 1))
        if n > 2:
            out = p[1:, 1:n]
            ratio = np.exp(self._log_z[:t] - self._log_z[1:])
            np.multiply(self._table[:t, 2:], ratio[:, None], out=out)
            np.divide(out, self._table[1:, 1:n], out=out)
            out *= 0.5
        return p


@dataclass(frozen=True)
class RingConfig:
    """Ring walk setup: n sites, horizon t_total, start x0."""

    n: int
    t_total: int
    x0: int

    def __post_init__(self):
        if not 0 < self.x0 < self.n:
            raise ValueError(f"need 0 < x0 < n, got x0={self.x0}, n={self.n}")
        if self.t_total < 0:
            raise ValueError(f"need t_total >= 0, got {self.t_total}")


def ring_time_scale(n: int, alpha: float) -> int:
    """Horizon floor(alpha n^3 / (2 pi^2)) matching interlacement level alpha."""
    if n < 2 or not alpha > 0:
        raise ValueError(f"need n >= 2 and alpha > 0, got n={n}, alpha={alpha}")
    t = int(alpha * n**3 / (2 * math.pi**2))
    if t == 0:
        warnings.warn(f"degenerate horizon 0 for n={n}, alpha={alpha}", stacklevel=2)
    return t


def sample_ring_path(cfg: RingConfig, rng: RngState) -> WalkPath:
    """One trajectory of the conditioned ring walk, all t_total steps."""
    kernel = SurvivalKernel(cfg.n, cfg.t_total)
    if cfg.t_total >= 1 and kernel.h(cfg.x0, cfg.t_total) == 0.0:
        raise ValueError("conditioning on survival is impossible from this start")
    steps = _ring_steps(kernel, cfg.x0, cfg.t_total, 1, rng.generator())
    return WalkPath((cfg.x0,) + tuple(int(pos[0]) for pos in steps))


def _ring_steps(kernel: SurvivalKernel, x0: int, t: int, M: int,
                gen: np.random.Generator):
    """Yield the positions of M conditioned ring walkers after each of t steps.

    The walkers start at x0 with t steps to go. Every yield is the same array,
    updated in place. Uses the kernel's up-step table, so memory is O(n*t) and
    time O(M*t); a step allocates nothing and draws M uniforms.
    """
    if t > kernel.t_max:
        raise ValueError(f"horizon {t} exceeds table horizon {kernel.t_max}")
    p_up = kernel._step_up_table()
    pos = np.full(M, x0, dtype=np.int64)
    u = np.empty(M)
    thr = np.empty(M)
    up = np.empty(M, dtype=bool)
    for s in range(t, 0, -1):
        gen.random(out=u)
        np.take(p_up[s], pos, out=thr)
        np.less(u, thr, out=up)
        pos += up  # +1 for an up-step, -1 for a down-step
        pos += up
        pos -= 1
        yield pos


def _ring_paths_batch(kernel: SurvivalKernel, x0: int, t: int, M: int,
                      gen: np.random.Generator, visit_site: int | None = None,
                      stay_in: tuple[int, int] | None = None):
    """M conditioned ring paths, vectorized over replicates.

    Returns (visit counts at visit_site over times 1..t, indicator that the
    whole path stays strictly inside the open interval stay_in); either may
    be None when not requested.
    """
    visits = np.zeros(M, dtype=np.int64) if visit_site is not None else None
    inside = np.ones(M, dtype=bool) if stay_in is not None else None
    for pos in _ring_steps(kernel, x0, t, M, gen):
        if visits is not None:
            visits += pos == visit_site
        if inside is not None:
            inside &= (pos > stay_in[0]) & (pos < stay_in[1])
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
    log_num, s_num = h_spectral_log(n - a - b, x0 - b, t)
    log_den, s_den = h_spectral_log(n, x0, t)
    if s_num < 0 or s_den <= 0:
        raise RuntimeError(f"spectral sum for the ring vacant probability is "
                           f"not positive at n={n}, t={t}, x0={x0} (cancellation)")
    if s_num == 0:
        return 0.0
    return math.exp(float(log_num) - float(log_den))


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


# -- exact propagation checks for the asymptotic formulas -----------------------

def _propagate_killed(length: int, start: int, steps: int,
                      extra_kill: tuple[int, ...] = ()):
    """Distribution of the simple walk killed at {0, length} + extra sites.

    Returns (weights summing to 1 over 0..length, log of the surviving mass)
    after ``steps`` steps from ``start``, or (zeros, -inf) once nothing
    survives.
    """
    if start in (0, length) or start in extra_kill:
        raise ValueError(f"start {start} is a killed site")
    w = np.zeros(length + 1)
    w[start] = 1.0
    log_z = 0.0
    for w, log_z in _killed_steps(w, steps, extra_kill):
        pass
    total = w.sum()
    if total == 0.0:
        return w, -math.inf
    return w / total, log_z + math.log(total)


def verify_pi4(n: int, delta: int, a: int) -> tuple[float, bool]:
    """E_a[sin(pi X_delta / n) | survival in (0,n)], computed exactly.

    In the first-mode regime the value is (1 + O(n^-2)) * pi/4 independently
    of a; the boolean flags whether delta reaches that regime.
    """
    if not 1 <= a <= n - 1:
        raise ValueError(f"need 1 <= a <= n-1, got a={a}, n={n}")
    w, _ = _propagate_killed(n, a, delta)
    val = float(np.dot(w, np.sin(np.pi * np.arange(n + 1) / n)))
    return val, in_cond_regime(delta, n)


def _reweighted_prob(n: int, x0: int, t: int, delta: int, w, log_mass: float) -> float:
    """P[constrained first leg] = sum_z w(z) h_n(z, t-delta) / h_n(x0, t).

    ``w`` is the normalized end-of-leg distribution with surviving log mass
    ``log_mass``; everything is combined in log domain.
    """
    sites = np.nonzero(w > 0)[0]
    if sites.size == 0:
        return 0.0
    log_h, sign = h_spectral_log(n, sites, t - delta)
    num, num_sign = logsumexp(np.log(w[sites]) + log_h, b=sign, return_sign=True)
    if num_sign < 0:
        raise RuntimeError(f"reweighted spectral sum is negative at n={n}, "
                           f"t={t}, x0={x0} (cancellation)")
    if num_sign == 0:
        return 0.0
    log_den, _ = h_spectral_log(n, x0, t)
    return math.exp(log_mass + float(num) - float(log_den))


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
    w, log_mass = _propagate_killed(n2, n_half, delta, extra_kill=(x,))
    return _reweighted_prob(n2, n_half, t, delta, w, log_mass), asym, ok


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
    w, log_mass = _propagate_killed(n2, x, delta, extra_kill=(n_half,))
    return _reweighted_prob(n2, x, t, delta, w, log_mass), bound

