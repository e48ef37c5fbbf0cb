"""Run a change against its parent commit in alternating pairs of benchmark runs.

Run from the root of a checkout. The committed files came from::

    python3 scripts/bench_pairs.py --parent-rev e806b13 --claim exact-scale \\
        --seed0 931 --sweep kernel_build --out BENCH_kernel_cut.json
    python3 scripts/bench_pairs.py --parent-rev 93d8ed2 --claim sampling-scale \\
        --seed0 961 --sweep ring_walk --out BENCH_ring_walk.json
    python3 scripts/bench_pairs.py --parent-rev 7bfabde --claim sampling-scale \\
        --seed0 991 --sweep ring_walk --out BENCH_ring_blocks.json
    python3 scripts/bench_pairs.py --parent-rev 93a5997 --claim selftest \\
        --seed0 1021 --sweep absorb --out BENCH_absorb_blocks.json
    python3 scripts/bench_pairs.py --parent-rev 376e067 --claim sampling-scale \\
        --seed0 1051 --sweep ring_walk --sweep absorb --out BENCH_block_engine.json
    python3 scripts/bench_pairs.py --parent-rev e9ff33f --claim sampling-scale \\
        --seed0 1081 --sweep ring_walk --sweep ring_path --sweep absorb \\
        --out BENCH_walk_rows.json
    python3 scripts/bench_pairs.py --parent-rev 4991ae4 --claim sampling-scale \\
        --seed0 1111 --sweep window --sweep ring_walk --sweep absorb \\
        --out BENCH_window_chain.json
    python3 scripts/bench_pairs.py --parent-rev 65f9388 --claim sampling-scale \\
        --seed0 1141 --sweep ring_walk --sweep absorb --sweep window \\
        --out BENCH_block_batches.json
    python3 scripts/bench_pairs.py --parent-rev 38147e3 --claim selftest \\
        --seed0 1171 --out BENCH_no_scipy.json
    python3 scripts/bench_pairs.py --parent-rev bb8a1b8 --claim sampling-scale \\
        --seed0 1201 --sweep ring_walk --sweep absorb --sweep search \\
        --out BENCH_guide_search.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev ca1f151 \\
        --claim exact-scale --seed0 1231 --sweep killed_walk --sweep kernel_build \\
        --out BENCH_killed_runs.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 1df6b97 \\
        --claim sampling-scale --seed0 1261 --sweep harness \\
        --out BENCH_harness_memory.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev de7204e \\
        --claim sampling-scale --seed0 1291 --sweep ring_walk \\
        --out BENCH_block_schedule.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev a4958c8 \\
        --claim exact-scale --seed0 1321 --sweep killed_walk --sweep kernel_build \\
        --out BENCH_killed_lean.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev fd7a142 \\
        --claim sampling-scale --seed0 1351 --sweep ring_walk \\
        --out BENCH_settled_blocks.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 67dd7fb \\
        --claim selftest --seed0 1381 --sweep window --sweep local_times \\
        --out BENCH_negbin_tables.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 8ec472f \\
        --claim sampling-scale --seed0 1411 --sweep ring_walk --sweep window \\
        --sweep local_times --out BENCH_law_layout.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev c3cfc82 \\
        --claim sampling-scale --seed0 1441 --sweep ring_walk --sweep search \\
        --out BENCH_doob_laws.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev c3cfc82 \\
        --claim sampling-scale --seed0 1471 --out BENCH_doob_laws_2.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 47bcfcb \\
        --claim selftest --seed0 1501 --sweep absorb --out BENCH_half_line_law.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 580d6e8 \\
        --claim selftest --seed0 1561 --sweep local_times --sweep window \\
        --out BENCH_poisson_tables.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 6f546b6 \\
        --claim exact-scale --seed0 1591 --sweep killed_walk \\
        --out BENCH_killed_band.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 5b68f1d \\
        --claim selftest --seed0 1621 --sweep absorb --sweep ring_walk --sweep search \\
        --out BENCH_absorb_images.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 2d3dbd7 \\
        --claim exact-scale --seed0 1651 --sweep killed_walk \\
        --out BENCH_killed_pair.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 6cf2c26 \\
        --claim selftest --seed0 1681 --sweep harness --out BENCH_harness_counts.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev 68f5901 \\
        --claim selftest --seed0 1711 --sweep local_times --sweep window \\
        --out BENCH_compound_tables.json
    OPENBLAS_NUM_THREADS=1 python3 scripts/bench_pairs.py --parent-rev bcff6a8 \\
        --claim exact-scale --seed0 1741 --sweep kernel_build --sweep ring_path \\
        --out BENCH_kernel_runs.json

(the files before BENCH_walk_rows.json ran one pair per sweep case;
BENCH_window_chain.json, BENCH_block_schedule.json, BENCH_law_layout.json and
BENCH_absorb_images.json claim no gain: there --claim only picks the workload
that gets PAIRS pairs).

The parent revision and the change are each exported with ``git archive``
into a temporary directory of their own, so neither side runs in the
checkout. The change is the checkout's tracked files as they stand, staged or
not (``git stash create``; HEAD when nothing differs from it): add a new file
to the index before a run, or it is left out. Both sides run with the same
benchmark settings (``perfbench/run.py --seconds 20 --trace 0``). Pair i runs the
parent first when i is even and the change first when i is odd, at seed
seed0 + i. The output holds:

- the claimed workload: PAIRS pairs of every end-to-end metric, with each
  side's median and quartiles and the number of pairs the change wins;
- every other workload: OTHER_PAIRS pairs each, the no-regression check;
- per workload, whether the fingerprints (every checked output, bit for bit)
  of the two sides are equal at each seed, and the names of the operations
  whose statistic, threshold or pass flag differ;
- each sweep named (``--sweep`` may be given more than once): SWEEP_PAIRS
  pairs per case, each run in a fresh interpreter, pair i running the
  parent first when i is even. A row gives each side's median and
  quartiles of every timing and peak (TIMINGS) and the other fields of its
  first run; a row whose cases print an ``outputs_sha256`` also says whether
  every run of both sides printed the same hash (``outputs_equal``):
  - ``kernel_build``: the median of BUILD_REPEATS builds of
    ``SurvivalKernel(n, ring_time_scale(n, alpha))``, with the number of
    its rows and the bytes of its ndarray fields, or the MemoryError when
    the budget (half of physical memory) refuses it; and at n = 80 and 160
    the median of as many calls of that kernel's ``_step_up_table()``,
    with the table's bytes. Either way with the tracemalloc peak of one
    more call;
  - ``window``: the median of WINDOW_REPEATS calls of
    ``_simulate_window_batch`` at alpha = 1 at the sizes of WINDOW_CASES, in
    ns per replicate, and the tracemalloc peak of one more call in bytes per
    window, with a hash of the visit and trajectory counts and the path of
    each batch of draws of that call (DRAWS_BY);
  - ``ring_walk``: the median of WALK_REPEATS calls of ``_ring_paths_batch``
    on the ring walks the benchmark and the acceptance suite make, in ns per
    walker-step, the draws per walker of one call (its ``_search`` rounds),
    the search tables it builds and the tracemalloc peak of one more call
    in bytes, with a hash of the outputs and of the generator state;
  - ``ring_path``: the median of PATH_REPEATS calls of ``sample_ring_path``
    from the middle of the ring at the sizes of PATH_CASES, alpha = 1,
    kernel build included, in ns per step, with a hash of the paths;
  - ``absorb``: the median of ABSORB_REPEATS runs of each absorbing walk of
    ABSORB_CASES, in ns per walker-step (the expected number of steps the
    walkers take before absorption or the horizon, from the exact law),
    the draws per walker of one run (its ``_search`` calls), with a hash
    of the outputs;
  - ``search``: ``_search`` alone on the block-walk tables of SEARCH_TABLES,
    the ring walks' as ``_block_laws`` yields them (check 08's first law,
    its settled power, and its law at 1000 steps to go; the first laws of
    the n = 80 vacant walk and of check 07b) and check 13's absorbing
    table, M walkers spread evenly over the rows with mass, at the sizes of
    SEARCH_CASES: the median
    of SEARCH_REPEATS calls in ns per walker and of as many table builds,
    with a hash of the outcomes;
  - ``killed_walk``: the killed walk of KILLED_CASES, the median of
    KILLED_REPEATS calls in ns per step, with a hash of the values: ``h_dp``
    from the middle of the segment of n sites over KILLED_STEPS steps, over
    KILLED_STEPS + 32 at n = 1000 (an odd block count), over 64 at n =
    20,000 (a short walk on a long segment), and over 40 at n = 12 and 100
    at n = 41 (short walks on short segments), and
    the first leg of ``no_hit_prob_exact`` on the ring of 2 n_half sites,
    delta = ceil(cond_threshold(2 n_half)) steps killed at site 1, as
    exact-scale runs it at n_half = 120, and ``mid_tail``, the first leg of
    ``mid_tail_check`` from x = n_half / 2, killed at n_half to its right,
    over as many steps, as check 11 runs it at n_half = 40 and x = 20;
  - ``harness``: the replicate harness on the local-time sampler at
    x = 400 of check 04 and sampling-scale, at the cases of HARNESS_CASES:
    ``run_replicates`` at M replicates with ``keep_sample`` off and on at 1
    and 2 workers, the median of HARNESS_REPEATS untraced calls and the
    tracemalloc peak of one more call in bytes and in bytes per replicate
    (with ``keep_sample`` off, a peak far below 8 bytes a replicate at
    M = 1e6 shows a harness that holds no array of M values); and
    ``ks_distance_to_normal`` on KS_POINTS standardized local times, sorted
    and shuffled, in ns per point, with its tracemalloc peak in bytes. Each
    row hashes the summaries or the statistic;
  - ``local_times``: ``sample_local_times`` at alpha = 1 at the sites of
    LOCAL_TIME_CASES and M = LOCAL_TIME_M (x = 3 and 5 of checks 02a and 03,
    x = 400 of check 04 and sampling-scale), the median of
    LOCAL_TIME_REPEATS calls in ns per draw and the tracemalloc peak of one
    more call in bytes per draw, with a hash of the draws and the path of
    each batch of draws of that call (DRAWS_BY).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("selftest", "sampling-scale", "exact-scale")
PAIRS = 10
OTHER_PAIRS = 5
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "pass_ratio", "ops")
LOWER_IS_BETTER = ("wall_s", "setup_s", "peak_rss_mb")
SWEEP_PAIRS = 5
TIMINGS = ("build_s", "s", "ns_per_walker_step", "ns_per_step", "ns_per_replicate",
           "ns_per_walker", "ns_per_point", "ns_per_draw", "peak_bytes",
           "peak_bytes_per_replicate", "peak_bytes_per_draw")

#: (call, n, alpha): the kernel's build, and its step table at the sizes
#: exact-scale builds it
BUILD_CASES = tuple(("build", n, alpha) for n, alpha in
                    ((40, 1.0), (80, 1.0), (160, 1.0), (400, 1.0), (400, 0.1))) + \
    (("step_table", 80, 1.0), ("step_table", 160, 1.0))
BUILD_REPEATS = 3
BUILD_SNIPPET = """
import json, statistics, sys, time, tracemalloc
import numpy as np
sys.path.insert(0, "src")
from ri1d import ring_kernel as rk
call, n, alpha, reps = sys.argv[1], int(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
t = rk.ring_time_scale(n, alpha)
out = {"n": n, "alpha": alpha, "t": t}
try:
    if call == "build":
        fn = lambda: rk.SurvivalKernel(n, t)
    else:
        fn = rk.SurvivalKernel(n, t)._step_up_table
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        got = fn()
        times.append(time.perf_counter() - start)
        del got
    tracemalloc.start()
    got = fn()
    out["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if call == "build":
        out["rows"] = len(got._log_z)
        # computed from ndarray.nbytes, as perfbench/workloads.py does
        out["kernel_bytes"] = sum(v.nbytes for v in vars(got).values()
                                  if isinstance(v, np.ndarray))
        out["build_s"] = statistics.median(times)
    else:
        out["table_bytes"] = got.nbytes
        out["s"] = statistics.median(times)
    del got
except MemoryError as err:
    out["refused"] = str(err)
print(json.dumps(out))
"""

#: Defines draws_by(call, gen), the batches of draws of call(generator), in
#: order: "table RxC" for each search table built (the shape of its law:
#: 1xC for a Poisson row or a local time's own law, one row per count for a
#: NegBin table) and "numpy <method>" for each of numpy's draws. A generator
#: that forwards every method logs numpy's draws, so the parent's code runs
#: it unchanged.
DRAWS_BY = """
class _Logged:
    def __init__(self, gen, log):
        self._gen, self._log = gen, log
    def __getattr__(self, name):
        if name != "random":
            self._log.append("numpy " + name)
        return getattr(self._gen, name)

def draws_by(call, gen):
    log, build = [], il._search_table
    def logged_build(law):
        log.append("table %dx%d" % law.shape)
        return build(law)
    il._search_table = logged_build
    try:
        call(_Logged(gen, log))
    finally:
        il._search_table = build
    return log
"""

#: (L, M): the two harness chunks (mc.CHUNK_SIZE and the rest of 1e5) of
#: checks 01 and 02b, and the window sweep of sampling-scale
WINDOW_CASES = ((8, 65536), (8, 34464), (16, 4000), (32, 2000), (64, 1000))
WINDOW_REPEATS = 3
WINDOW_SNIPPET = """
import hashlib, json, statistics, sys, time, tracemalloc
sys.path.insert(0, "src")
from ri1d import interlacements as il
from ri1d.rngs import RngState
""" + DRAWS_BY + """
L, M, reps = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
times, digest = [], hashlib.sha256()
for rep in range(reps):
    gen = RngState(rep).generator()
    start = time.perf_counter()
    counts, n_traj, _ = il._simulate_window_batch(1.0, L, M, gen)
    times.append(time.perf_counter() - start)
    digest.update(counts.tobytes())
    digest.update(n_traj.tobytes())
gen = RngState(reps).generator()
tracemalloc.start()
counts, n_traj, _ = il._simulate_window_batch(1.0, L, M, gen)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
digest.update(counts.tobytes())
digest.update(n_traj.tobytes())
paths = draws_by(lambda g: il._simulate_window_batch(1.0, L, M, g), RngState(reps).generator())
print(json.dumps({"s": statistics.median(times),
                  "ns_per_replicate": 1e9 * statistics.median(times) / M,
                  "peak_bytes_per_replicate": peak / M,
                  "outputs_sha256": digest.hexdigest(), "draws_by": paths}))
"""

#: (n, M, x0, visit_site, stay_in): check 07b, the ring local time of check
#: 08 and sampling-scale at one chunk, and sampling-scale's ring vacant set
WALK_CASES = ((40, 20000, 20, None, (2, 39)), (48, 65536, 24, 2, None),
              (80, 4000, 40, None, (2, 79)))
WALK_REPEATS = 3
WALK_SNIPPET = """
import hashlib, json, statistics, sys, time, tracemalloc
sys.path.insert(0, "src")
from ri1d import ring_kernel as rk
from ri1d.rngs import RngState
n, M, x0, site, bounds, reps = json.loads(sys.argv[1])
t = rk.ring_time_scale(n, 1.0)
kernel = rk.SurvivalKernel(n, t)
search, search_table, rounds, tables = rk._search, rk._search_table, [], []


def counted(*args):
    # one search per draw: every walker draws one uniform per round
    rounds.append(None)
    return search(*args)


def built(law):
    tables.append(None)
    return search_table(law)


rk._search, rk._search_table = counted, built
times, digest = [], hashlib.sha256()
for rep in range(reps):
    gen = RngState(rep).generator()
    rounds.clear()
    tables.clear()
    start = time.perf_counter()
    visits, inside = rk._ring_paths_batch(kernel, x0, t, M, gen, site, bounds)
    times.append(time.perf_counter() - start)
    for a in (visits, inside):
        if a is not None:
            digest.update(a.tobytes())
    digest.update(repr(gen.bit_generator.state).encode())
draws, n_tables = len(rounds), len(tables)
tracemalloc.start()
visits, inside = rk._ring_paths_batch(kernel, x0, t, M, RngState(reps).generator(), site,
                                      bounds)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
for a in (visits, inside):
    if a is not None:
        digest.update(a.tobytes())
print(json.dumps({"t": t, "draws_per_walker": draws, "tables": n_tables,
                  "s": statistics.median(times),
                  "ns_per_walker_step": 1e9 * statistics.median(times) / (M * t),
                  "peak_bytes": peak, "outputs_sha256": digest.hexdigest()}))
"""

#: ring sizes of the path sampler: the ring of check 07b and the n = 80 ring
#: of sampling-scale
PATH_CASES = (40, 80)
PATH_REPEATS = 3
PATH_SNIPPET = """
import hashlib, json, statistics, sys, time
sys.path.insert(0, "src")
from ri1d import ring_kernel as rk
from ri1d.rngs import RngState
n, reps = int(sys.argv[1]), int(sys.argv[2])
t = rk.ring_time_scale(n, 1.0)
times, digest = [], hashlib.sha256()
for rep in range(reps):
    start = time.perf_counter()
    path = rk.sample_ring_path(n, t, n // 2, RngState(rep))
    times.append(time.perf_counter() - start)
    digest.update(repr(path.positions).encode())
print(json.dumps({"t": t, "s": statistics.median(times),
                  "ns_per_step": 1e9 * statistics.median(times) / t,
                  "outputs_sha256": digest.hexdigest()}))
"""

#: (call, arguments): the three Monte Carlo calls of check 13 at M = 1e5,
#: one absorbing walk of M = 2e4 walkers far from the origin, and one of 200
#: walkers spread over the sites 3, 103, .., 19,903 (a start [first, stop,
#: step] is np.arange's, one walker a site)
ABSORB_CASES = (("simulate_hit_before", [5, 2, 12, 100000]),
                ("estimate_hit_prob", [5, 2, 100000]),
                ("estimate_escape_prob", [3, 100000]),
                ("_absorb", [1000000, 999997, None, 500, 20000]),
                ("_absorb", [[3, 19904, 100], 2, None, 2000, 200]))
ABSORB_REPEATS = 3
ABSORB_SNIPPET = """
import hashlib, json, statistics, sys, time
import numpy as np
sys.path.insert(0, "src")
from ri1d import core_walks as cw
from ri1d.rngs import RngState
name, args, reps = json.loads(sys.argv[1])
search, rounds = cw._search, []


def counted(*args):
    # one search per draw: every live walker draws one uniform per draw
    rounds.append(None)
    return search(*args)


cw._search = counted

def live_steps(start, lo, hi, steps):
    # expected steps per walker before absorption or the horizon: the sum
    # over steps of the exact mass still active
    top = start + steps + 1 if hi is None else hi
    sites = np.arange(lo, top + 1)
    up = (sites + 1) / (2 * np.maximum(sites, 1))
    law = np.zeros(sites.size)
    law[start - lo] = 1.0
    total = 0.0
    for _ in range(steps):
        mass = law.sum()
        if mass < 1e-15:
            break
        total += mass
        nxt = np.zeros_like(law)
        nxt[1:] = law[:-1] * up[:-1]
        nxt[:-1] += law[1:] * (1 - up[1:])
        nxt[0] = nxt[-1] = 0.0
        law = nxt
    return total

if name == "simulate_hit_before":
    y, x, N, M = args
    per_walker = live_steps(y, x, N, cw.ABSORPTION_STEP_CAP)
    call = lambda rep: cw.simulate_hit_before(y, x, N, M, RngState(rep, 101))
elif name == "estimate_hit_prob":
    y, x, M = args
    per_walker = live_steps(y, x, None, cw.ESTIMATOR_HORIZON)
    call = lambda rep: cw.estimate_hit_prob(y, x, M, RngState(rep, 102))
elif name == "estimate_escape_prob":
    x, M = args
    per_walker = 1 + cw.step_up_prob(x) * live_steps(x + 1, x, None,
                                                     cw.ESTIMATOR_HORIZON)
    call = lambda rep: cw.estimate_escape_prob(x, M, RngState(rep, 103))
else:
    start, lo, hi, steps, M = args
    starts = np.arange(*start) if isinstance(start, list) else np.full(M, start)
    # per distinct start; a walker out of lo's reach takes every step
    sites, count = np.unique(starts, return_counts=True)
    per_walker = sum(c * (live_steps(int(s), lo, hi, steps) if s - lo <= steps else steps)
                     for s, c in zip(sites, count)) / M

    def call(rep):
        gen = RngState(rep, 104).generator()
        hits, pos = cw._absorb(gen, starts, lo, hi, steps)
        return [hits, pos.tobytes().hex(), repr(gen.bit_generator.state)]
times, digest = [], hashlib.sha256()
for rep in range(reps):
    rounds.clear()
    start_s = time.perf_counter()
    value = call(rep)
    times.append(time.perf_counter() - start_s)
    digest.update(repr(value).encode())
print(json.dumps({"walker_steps": M * per_walker, "draws_per_walker": len(rounds),
                  "s": statistics.median(times),
                  "ns_per_walker_step": 1e9 * statistics.median(times) / (M * per_walker),
                  "outputs_sha256": digest.hexdigest()}))
"""


#: (name, M): _search alone on the tables of the block walks, at the walker
#: counts of the n = 80 vacant walk, check 07b's chunk and one full chunk
SEARCH_TABLES = ("08 settled", "08 block", "vacant n80", "07b", "absorb")
SEARCH_CASES = tuple((name, M) for name in SEARCH_TABLES for M in (4000, 20000, 65536))
SEARCH_REPEATS = 21
SEARCH_SNIPPET = """
import hashlib, inspect, json, statistics, sys, time
import numpy as np
sys.path.insert(0, "src")
from ri1d import core_walks as cw
from ri1d import ring_kernel as rk
from ri1d.rngs import RngState
name, M, reps = json.loads(sys.argv[1])
if name == "absorb":
    # check 13's hit-before walk: absorbed at 2 and 12, from the sites 3..11
    # (older trees take them as first site and count)
    if "sites" in inspect.signature(cw._absorb_law).parameters:
        law = cw._absorb_law(np.arange(3, 12), 2, 12, cw._BLOCK)
    else:
        law = cw._absorb_law(3, 9, 2, 12, cw._BLOCK)
else:
    # (n, s0, visit site, bounds): the law the walk from n // 2 draws with
    # s0 steps to go, None its first
    n, s0, site, bounds = {"08 settled": (48, None, 2, None),
                           "08 block": (48, 1000, 2, None),
                           "vacant n80": (80, None, None, (2, 79)),
                           "07b": (40, None, None, (2, 39))}[name]
    t = rk.ring_time_scale(n, 1.0)
    for steps, law, draws in rk._block_laws(rk.SurvivalKernel(n, t), n // 2, t, site,
                                            bounds):
        if s0 is None or t - steps * draws < s0:
            break
        t -= steps * draws
builds = []
for _ in range(reps):
    start = time.perf_counter()
    table = cw._search_table(law)
    builds.append(time.perf_counter() - start)
# the table's head before its law.ndim - 1 outcome coordinates: what _search
# takes, with or without a guide
head = table[:len(table) - (law.ndim - 1)]
gen = RngState(2203).generator()
# walkers spread evenly over the rows with mass
live = np.flatnonzero(law.reshape(len(law), -1).sum(axis=1) > 0)
rows = gen.choice(live, M).astype(np.intp)
pos, thr, bit = np.empty(M, dtype=np.intp), np.empty(M), np.empty(M, dtype=np.intp)
times, digest = [], hashlib.sha256()
for _ in range(reps):
    u = gen.random(M)
    start = time.perf_counter()
    cw._search(*head, rows, u, pos, thr, bit)
    times.append(time.perf_counter() - start)
    digest.update(pos.tobytes())
print(json.dumps({"K": head[-1], "rows": len(law), "build_s": statistics.median(builds),
                  "s": statistics.median(times),
                  "ns_per_walker": 1e9 * statistics.median(times) / M,
                  "outputs_sha256": digest.hexdigest()}))
"""

KILLED_STEPS = 250000
#: (call, size, steps): h_dp at n = size over steps steps, and the first leg
#: of the no-hit or the mid-tail check at n_half = size (its steps are its
#: delta)
KILLED_CASES = (("h_dp", 200, KILLED_STEPS), ("h_dp", 1000, KILLED_STEPS),
                ("h_dp", 1000, KILLED_STEPS + 32), ("h_dp", 20000, 64), ("h_dp", 12, 40),
                ("h_dp", 41, 100), ("first_leg", 60, None), ("first_leg", 120, None),
                ("mid_tail", 40, None))
KILLED_REPEATS = 3
KILLED_SNIPPET = """
import hashlib, json, math, statistics, sys, time
import numpy as np
sys.path.insert(0, "src")
from ri1d import config
from ri1d import ring_kernel as rk
name, size, steps, reps = json.loads(sys.argv[1])
if name == "h_dp":
    call = lambda: rk.h_dp(size, size // 2, steps)
else:
    steps = math.ceil(config.cond_threshold(2 * size))
    if name == "first_leg":
        call = lambda: rk.no_hit_prob_exact(size, 2 * steps, steps, 1)[0]
    else:
        call = lambda: rk.mid_tail_check(size, 2 * steps, steps, size // 2)[0]
times, digest = [], hashlib.sha256()
for _ in range(reps):
    start = time.perf_counter()
    value = call()
    times.append(time.perf_counter() - start)
    digest.update(np.float64(value).tobytes())
print(json.dumps({"steps": steps, "s": statistics.median(times),
                  "ns_per_step": 1e9 * statistics.median(times) / steps,
                  "outputs_sha256": digest.hexdigest()}))
"""

#: (call, M, keep_sample, workers): run_replicates at the M of check 04 and of
#: sampling-scale; ks at KS_POINTS points
HARNESS_CASES = tuple(("run_replicates", M, keep, workers) for M in (10**5, 10**6)
                      for keep in (False, True) for workers in (1, 2)) + \
    (("ks sorted", None, None, None), ("ks shuffled", None, None, None))
HARNESS_REPEATS = 5
KS_POINTS = 10**6
HARNESS_SNIPPET = """
import hashlib, json, statistics, sys, time, tracemalloc
import numpy as np
sys.path.insert(0, "src")
from ri1d import interlacements as il
from ri1d import mc
name, M, keep, workers, points, reps = json.loads(sys.argv[1])
exp = mc.Experiment("local-time", lambda g, m: il.sample_local_times(400, 1.0, m, g))
digest = hashlib.sha256()
if name == "run_replicates":
    call = lambda: mc.run_replicates(exp, M, 7, workers, keep_sample=keep)

    def record(s):
        for v in (s.mean, s.variance):
            digest.update(v.hex().encode())
        digest.update(s.pmf.tobytes())
        if keep:
            digest.update(s.sample.tobytes())
else:
    z = il.standardize_local_time(mc.run_replicates(exp, points, 7, 1, keep_sample=True)
                                  .sample, 400, 1.0)
    if name == "ks shuffled":
        z = np.random.default_rng(7).permutation(z)
    call = lambda: mc.ks_distance_to_normal(z)
    record = lambda ks: digest.update(ks.hex().encode())
times = []
for _ in range(reps):
    start = time.perf_counter()
    out = call()
    times.append(time.perf_counter() - start)
    record(out)
    out = None
tracemalloc.start()
out = call()
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
record(out)
out = {"s": statistics.median(times), "outputs_sha256": digest.hexdigest()}
if name == "run_replicates":
    out.update(peak_bytes=peak, peak_bytes_per_replicate=peak / M)
else:
    out.update(ns_per_point=1e9 * statistics.median(times) / points, peak_bytes=peak)
print(json.dumps(out))
"""

#: sites of the local-time sweep, at M draws, one chunk of the harness
LOCAL_TIME_CASES = (1, 3, 5, 20, 400)
LOCAL_TIME_M = 65536
LOCAL_TIME_REPEATS = 5
LOCAL_TIME_SNIPPET = """
import hashlib, json, statistics, sys, time, tracemalloc
sys.path.insert(0, "src")
from ri1d import interlacements as il
from ri1d.rngs import RngState
""" + DRAWS_BY + """
x, M, reps = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
times, digest = [], hashlib.sha256()
for rep in range(reps):
    gen = RngState(rep).generator()
    start = time.perf_counter()
    s = il.sample_local_times(x, 1.0, M, gen)
    times.append(time.perf_counter() - start)
    digest.update(s.tobytes())
gen = RngState(reps).generator()
tracemalloc.start()
s = il.sample_local_times(x, 1.0, M, gen)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
digest.update(s.tobytes())
paths = draws_by(lambda g: il.sample_local_times(x, 1.0, M, g), RngState(reps).generator())
print(json.dumps({"s": statistics.median(times),
                  "ns_per_draw": 1e9 * statistics.median(times) / M,
                  "peak_bytes_per_draw": peak / M, "outputs_sha256": digest.hexdigest(),
                  "draws_by": paths}))
"""


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json")
                        .read_text(encoding="utf-8"))
    return {"seed": seed, "correct": last["correct"], "failed": last["failed"],
            "fingerprint": record["fingerprint"], "operations": record["operations"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def sides(i: int) -> tuple[str, str]:
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def compare(workload: str, trees: dict, pairs: int, seed0: int) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        for side in sides(i):
            runs[side].append(run_bench(trees[side], workload, seed0 + i))
            print(workload, i, side, runs[side][-1]["metrics"], file=sys.stderr)
    pairs_run = list(zip(runs["parent"], runs["change"]))
    differ = set()
    for p, c in pairs_run:
        ops = zip(p.pop("operations"), c.pop("operations"))
        differ |= {a["name"] for a, b in ops if a != b}
    out = {"seeds": [seed0 + i for i in range(pairs)], "runs": runs,
           "fingerprints_equal": all(p["fingerprint"] == c["fingerprint"]
                                     for p, c in pairs_run),
           "operations_differing": sorted(differ)}
    for m in METRICS:
        par = [r["metrics"][m] for r in runs["parent"]]
        chg = [r["metrics"][m] for r in runs["change"]]
        lower = m in LOWER_IS_BETTER
        better = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        out[m] = {"parent": summary(par), "change": summary(chg),
                  "pairs_change_better": f"{better} of {pairs}",
                  "median_change": statistics.median(chg) / statistics.median(par) - 1
                  if statistics.median(par) else 0.0}
    return out


def sweep(trees: dict, snippet: str, cases: list[tuple[dict, list[str]]]) -> list[dict]:
    rows = []
    for case, args in cases:
        runs = {"parent": [], "change": []}
        for i in range(SWEEP_PAIRS):
            for side in sides(i):
                proc = subprocess.run([sys.executable, "-c", snippet, *args],
                                      cwd=trees[side], capture_output=True, text=True,
                                      check=True)
                runs[side].append(json.loads(proc.stdout))
        row = dict(case)
        for side, got in runs.items():
            row[side] = {k: summary([r[k] for r in got]) if k in TIMINGS else v
                         for k, v in got[0].items()}
        if "outputs_sha256" in runs["parent"][0]:
            row["outputs_equal"] = len({r["outputs_sha256"] for got in runs.values()
                                        for r in got}) == 1
        rows.append(row)
        print("sweep", row, file=sys.stderr)
    return rows


def kernel_builds(trees: dict) -> list[dict]:
    return sweep(trees, BUILD_SNIPPET,
                 [({"call": call, "n": n, "alpha": alpha},
                   [call, str(n), str(alpha), str(BUILD_REPEATS)])
                  for call, n, alpha in BUILD_CASES])


def windows(trees: dict) -> list[dict]:
    return sweep(trees, WINDOW_SNIPPET,
                 [({"L": L, "M": M}, [str(L), str(M), str(WINDOW_REPEATS)])
                  for L, M in WINDOW_CASES])


def ring_walks(trees: dict) -> list[dict]:
    return sweep(trees, WALK_SNIPPET,
                 [({"n": n, "M": M, "x0": x0, "visit_site": site, "stay_in": bounds},
                   [json.dumps([n, M, x0, site, bounds, WALK_REPEATS])])
                  for n, M, x0, site, bounds in WALK_CASES])


def ring_paths(trees: dict) -> list[dict]:
    return sweep(trees, PATH_SNIPPET,
                 [({"n": n}, [str(n), str(PATH_REPEATS)]) for n in PATH_CASES])


def absorb_walks(trees: dict) -> list[dict]:
    return sweep(trees, ABSORB_SNIPPET,
                 [({"call": name, "args": args},
                   [json.dumps([name, args, ABSORB_REPEATS])])
                  for name, args in ABSORB_CASES])


def searches(trees: dict) -> list[dict]:
    return sweep(trees, SEARCH_SNIPPET,
                 [({"table": name, "M": M}, [json.dumps([name, M, SEARCH_REPEATS])])
                  for name, M in SEARCH_CASES])


def killed_walks(trees: dict) -> list[dict]:
    return sweep(trees, KILLED_SNIPPET,
                 [({"call": name, "size": size, "steps": steps},
                   [json.dumps([name, size, steps, KILLED_REPEATS])])
                  for name, size, steps in KILLED_CASES])


def harness(trees: dict) -> list[dict]:
    return sweep(trees, HARNESS_SNIPPET,
                 [({"call": name, "M": M if M else KS_POINTS, "keep_sample": keep,
                    "workers": workers},
                   [json.dumps([name, M, keep, workers, KS_POINTS, HARNESS_REPEATS])])
                  for name, M, keep, workers in HARNESS_CASES])


def local_times(trees: dict) -> list[dict]:
    return sweep(trees, LOCAL_TIME_SNIPPET,
                 [({"x": x, "M": LOCAL_TIME_M},
                   [str(x), str(LOCAL_TIME_M), str(LOCAL_TIME_REPEATS)])
                  for x in LOCAL_TIME_CASES])


SWEEPS = {"kernel_build": kernel_builds, "window": windows, "ring_walk": ring_walks,
          "ring_path": ring_paths, "absorb": absorb_walks, "search": searches,
          "killed_walk": killed_walks, "harness": harness, "local_times": local_times}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, tree: Path) -> None:
    """Write the files of rev into the directory tree."""
    tree.mkdir()
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--claim", required=True, choices=WORKLOADS,
                        help="the workload whose gain is claimed: PAIRS pairs")
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed0", type=int, required=True,
                        help="pair i runs at seed seed0 + i")
    parser.add_argument("--sweep", choices=sorted(SWEEPS), action="append", default=[])
    args = parser.parse_args()
    rev = git("rev-parse", args.parent_rev)
    # a commit of the tracked files as they stand; empty when none differs from HEAD
    change = git("stash", "create") or git("rev-parse", "HEAD")
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"parent": Path(tmp, "parent"), "change": Path(tmp, "change")}
        export(rev, trees["parent"])
        export(change, trees["change"])
        doc = {
            "command": " ".join(["python3", "scripts/bench_pairs.py", *sys.argv[1:]]),
            "parent_commit": rev,
            "change_commit": change,
            "machine": {"python": platform.python_version(),
                        "machine": platform.machine(), "nproc": os.cpu_count()},
        }
        for workload in sorted(WORKLOADS, key=lambda w: w != args.claim):
            pairs = PAIRS if workload == args.claim else OTHER_PAIRS
            doc[workload] = compare(workload, trees, pairs, args.seed0)
        for name in args.sweep:
            doc[name] = SWEEPS[name](trees)
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
