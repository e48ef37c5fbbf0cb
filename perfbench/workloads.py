"""The three benchmark workloads and the exact reference behind every operation.

Each workload is a closed loop with one caller: every operation starts after
the previous one has returned. One round runs the workload's fixed work once
and returns a :class:`Round`. An operation is one comparison of a program
result with its exact reference; it fails when the result misses the
reference. The only threads are the replicate harness workers.

- ``selftest``: ``ri1d selftest`` through ``cli.main`` with one worker, so the
  26 verdicts of the acceptance suite are the operations.
- ``sampling-scale``: the samplers at larger sizes through
  ``mc.run_replicates`` with two workers; no exact pmf of size runs.
- ``exact-scale``: the exact laws and kernels at larger sizes, single caller,
  no harness, no sampler.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ri1d import cli, config, mc
from ri1d import interlacements as il
from ri1d import ring_kernel as rk

ALPHA = 1.0

#: Window sampler sweep (L, M); visits at SITE are compared with alpha*x^2.
WINDOW_POINTS = ((16, 4000), (32, 2000), (64, 1000))
SITE = 3
#: Local times at X_LT, 16 harness chunks.
X_LT, M_LT = 400, 10**6
#: Ring vacant interval [-1, 2] on the ring of N_RING sites, start N_RING/2.
N_RING, M_RING = 80, 4000
#: Ring local time at site 2 of the ring of 2*24 sites, 2 harness chunks.
N_HALF_RLT, X_RLT, M_RLT = 24, 2, 131072
SAMPLING_WORKERS = 2

PMF_SITES = (100, 200)
KERNEL_SIZES = (80, 160)
PI4_SIZES = (200, 400)
HDP = (1000, 500, 250000)
NO_HIT_HALF = 120

EXACT_TOL = 1e-9
K_SIGMA = 4.0


@dataclass(frozen=True)
class Check:
    """One operation: passes iff statistic <= threshold."""

    name: str
    statistic: float
    threshold: float

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.threshold)

    def record(self) -> dict:
        return {"name": self.name, "statistic": self.statistic,
                "threshold": self.threshold, "passed": self.passed}


@dataclass
class Round:
    """What one round of a workload produced."""

    checks: list[Check] = field(default_factory=list)
    #: Program outputs whose bits must repeat across rounds and tracing.
    values: dict[str, object] = field(default_factory=dict)
    #: Values for per-layer metrics that spans cannot give.
    extras: dict[str, float] = field(default_factory=dict)
    #: False when the program's output is malformed (not merely off target).
    well_formed: bool = True

    def fingerprint(self) -> list:
        """Exact, order-preserving image of every checked output."""
        out = [(c.name, _bits(c.statistic), _bits(c.threshold), c.passed)
               for c in self.checks]
        out += [(k, _bits(v)) for k, v in self.values.items()]
        return out


def _bits(v):
    if isinstance(v, (tuple, list)):
        return [_bits(u) for u in v]
    if isinstance(v, np.ndarray):
        return v.tobytes().hex()
    if isinstance(v, (float, np.floating)):
        return struct.pack("<d", float(v)).hex()
    return repr(v)


# -- selftest -----------------------------------------------------------------

def selftest(seed: int, out_dir: Path) -> Round:
    path = out_dir / f"selftest-verdicts-seed{seed}.json"
    rc = cli.main(["selftest", "--seed", str(seed), "--workers", "1",
                   "--out", str(path)])
    doc = json.loads(path.read_text(encoding="utf-8"))
    r = Round()
    for v in doc["verdicts"]:
        check = Check(v["name"], float(v["statistic"]), float(v["threshold"]))
        r.checks.append(check)
        r.well_formed &= check.passed == v["passed"]
    names = [c.name for c in r.checks]
    expected_rc = 0 if all(c.passed for c in r.checks) else 1
    r.well_formed &= bool(names) and len(set(names)) == len(names) and rc == expected_rc
    r.extras["verdicts_failed"] = sum(not c.passed for c in r.checks)
    return r


# -- sampling-scale ------------------------------------------------------------

def _window_visits(L: int):
    def sample(gen, m):
        counts, _, _ = il._simulate_window_batch(ALPHA, L, m, gen)
        return counts[:, L + SITE]
    return sample


def _z(mean: float, target: float, variance: float, M: int) -> float:
    return abs(mean - target) / math.sqrt(variance / M)


def sampling_scale(seed: int, out_dir: Path) -> Round:
    r = Round()
    w = SAMPLING_WORKERS
    mean_x = il.local_time_mean(SITE, ALPHA)
    var_x = il.local_time_variance(SITE, ALPHA)
    for L, M in WINDOW_POINTS:
        s = mc.run_replicates(mc.Experiment(f"window-L{L}", _window_visits(L)), M, seed, w)
        r.checks.append(Check(f"window L={L} mean visits at {SITE} (SE)",
                              _z(s.mean, mean_x, var_x, M), K_SIGMA))
        r.values[f"window.L{L}"] = (s.mean, s.variance, s.pmf)

    s = mc.run_replicates(
        mc.Experiment("local-time", lambda g, m: il.sample_local_times(X_LT, ALPHA, m, g)),
        M_LT, seed, w, keep_sample=True)
    mean, var = il.local_time_mean(X_LT, ALPHA), il.local_time_variance(X_LT, ALPHA)
    ks = mc.ks_distance_to_normal(il.standardize_local_time(s.sample, X_LT, ALPHA))
    r.checks += [
        Check(f"local time x={X_LT} mean (SE)", _z(s.mean, mean, var, M_LT), K_SIGMA),
        Check(f"local time x={X_LT} variance (rel)", abs(s.variance / var - 1), 0.02),
        Check(f"local time x={X_LT} KS to normal", ks, 0.02),
    ]
    r.values["local_time"] = (s.mean, s.variance, ks)

    t = rk.ring_time_scale(N_RING, ALPHA)
    x0, a, b = N_RING // 2, 1, 2
    kernel = rk.SurvivalKernel(N_RING, t)

    def ring_vacant(gen, m):
        _, inside = rk._ring_paths_batch(kernel, x0, t, m, gen, stay_in=(b, N_RING - a))
        return inside.astype(np.int64)

    s = mc.run_replicates(mc.Experiment("ring-vacant", ring_vacant), M_RING, seed, w)
    exact = rk.vacant_prob_ring_exact(N_RING, t, x0, a, b)
    r.checks.append(Check(f"ring n={N_RING} vacant [-{a},{b}] (SE)",
                          _z(s.mean, exact, exact * (1 - exact), M_RING), K_SIGMA))
    r.values["ring_vacant"] = (s.mean, exact)
    del kernel

    s = mc.run_replicates(
        mc.Experiment("ring-local-time",
                      lambda g, m: rk.ring_local_time_batch(N_HALF_RLT, ALPHA, X_RLT, m, g)),
        M_RLT, seed, w)
    tv = mc.tv_distance(s, il.local_time_pmf(X_RLT, ALPHA))
    r.checks.append(Check(f"ring 2n={2 * N_HALF_RLT} local time x={X_RLT} TV", tv, 0.05))
    r.values["ring_local_time"] = (s.pmf, tv)
    return r


# -- exact-scale ---------------------------------------------------------------

def exact_scale(seed: int, out_dir: Path) -> Round:
    r = Round()
    for x in PMF_SITES:
        law = il.local_time_pmf(x, ALPHA)
        mean, var = il.local_time_mean(x, ALPHA), il.local_time_variance(x, ALPHA)
        r.checks += [
            Check(f"pmf x={x} mean (rel)", abs(law.mean() / mean - 1), EXACT_TOL),
            Check(f"pmf x={x} variance (rel)", abs(law.variance() / var - 1), EXACT_TOL),
            Check(f"pmf x={x} tail mass", law.tail_mass, EXACT_TOL),
        ]
        r.values[f"pmf.x{x}"] = law.pmf
        r.extras[f"pmf_s_max_x{x}"] = law.s_max

    for n in KERNEL_SIZES:
        t = rk.ring_time_scale(n, ALPHA)
        kernel = rk.SurvivalKernel(n, t)
        steps = kernel._step_up_table()
        xs = np.arange(1, n)
        worst = 0.0
        for s in (0, t // 3, t):
            dp = np.array([kernel.h(int(x), s) for x in xs])
            log_abs, sign = rk.h_spectral_log(n, xs, s)
            worst = max(worst, float(np.max(np.abs(sign * np.exp(log_abs) - dp) / dp)))
            r.values[f"kernel.n{n}.t{s}"] = dp
            r.values[f"step_table.n{n}.t{s}"] = steps[s].copy()
        r.checks.append(Check(f"kernel table n={n} vs spectral (rel)", worst, EXACT_TOL))
        # computed from ndarray.nbytes, not measured
        r.extras[f"kernel_bytes_n{n}"] = sum(
            v.nbytes for v in vars(kernel).values() if isinstance(v, np.ndarray))
        r.extras[f"step_table_bytes_n{n}"] = steps.nbytes
        del kernel, steps

    for n in PI4_SIZES:
        val, _ = rk.verify_pi4(n, math.ceil(config.cond_threshold(n)), n // 2)
        r.checks.append(Check(f"pi/4 expectation n={n} (rel)",
                              abs(val / (math.pi / 4) - 1), config.first_mode_rel_tol(n)))
        r.values[f"pi4.n{n}"] = val

    n, x, t = HDP
    dp, sp = rk.h_dp(n, x, t), rk.h_spectral(n, x, t)
    r.checks.append(Check(f"h_dp vs h_spectral n={n} t={t} (rel)", abs(dp / sp - 1), EXACT_TOL))
    r.values["h_dp"] = (dp, sp)

    delta = math.ceil(config.cond_threshold(2 * NO_HIT_HALF))
    exact, asym, _ = rk.no_hit_prob_exact(NO_HIT_HALF, 2 * delta, delta, 1)
    r.checks.append(Check(f"no-hit n_half={NO_HIT_HALF} exact vs asymptotic (rel)",
                          abs(exact / asym - 1), config.no_hit_rel_tol(NO_HIT_HALF)))
    r.values["no_hit"] = (exact, asym)
    return r


WORKLOADS = {
    "selftest": selftest,
    "sampling-scale": sampling_scale,
    "exact-scale": exact_scale,
}

#: Harness workers per workload (exact-scale has no harness: one caller).
WORKERS = {"selftest": 1, "sampling-scale": SAMPLING_WORKERS, "exact-scale": 1}
