"""Per-layer metrics derived from the spans of one traced round.

Every metric is reported on every workload; a layer or sweep point that the
workload does not run reads 0 (and an exponent with fewer than two sweep
points reads 0). Exponents are least-squares slopes in log-log space over
the sweep points the round ran.
"""

from __future__ import annotations

import math
import re

from tracing import Span, self_times

_CHECK = re.compile(r"acceptance\.check_(\d\d)_")


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x); 0 with < 2 points."""
    if len(points) < 2:
        return 0.0
    lx = [math.log(x) for x, _ in points]
    ly = [math.log(y) for _, y in points]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def layer_metrics(spans: list[Span], extras: dict) -> dict[str, float]:
    """Name -> value for every per-layer metric except trace.overhead_ratio.

    ``extras`` carries values that the workload measured itself rather than
    spans: computed byte counts, the pmf truncation point and the number of
    failed selftest verdicts.
    """
    own = self_times(spans)

    def total(name: str, **where) -> float:
        return sum(s.duration for s in spans if s.name == name
                   and all(s.attrs and s.attrs.get(k) == v for k, v in where.items()))

    def count(name: str) -> int:
        return sum(1 for s in spans if s.name == name)

    def layer_self(prefix: str) -> float:
        return sum(own[s.id] for s in spans if s.name.startswith(prefix + "."))

    m: dict[str, float] = {}

    window = [s for s in spans if s.name == "interlacements._simulate_window_batch"]
    for L in (16, 32, 64):
        m[f"interlacements.window.L{L}.s"] = total(
            "interlacements._simulate_window_batch", L=L)
    per_draw: dict[int, list[float]] = {}
    for s in window:
        if s.attrs["L"] in (16, 32, 64):
            acc = per_draw.setdefault(s.attrs["L"], [0.0, 0])
            acc[0] += s.duration
            acc[1] += s.attrs["M"]
    m["interlacements.window.L_exponent"] = _slope(
        [(L, t / M) for L, (t, M) in sorted(per_draw.items())])
    m["interlacements.window.s"] = sum(s.duration for s in window)
    m["interlacements.local_times.x400.s"] = total(
        "interlacements.sample_local_times", x=400)
    pmf = {x: total("interlacements.local_time_pmf", x=x) for x in (100, 200)}
    m["interlacements.local_time_pmf.x100.s"] = pmf[100]
    m["interlacements.local_time_pmf.x200.s"] = pmf[200]
    m["interlacements.local_time_pmf.s_max.x200"] = extras.get("pmf_s_max_x200", 0)
    m["interlacements.local_time_pmf.x_exponent"] = _slope(
        [(x, t) for x, t in pmf.items() if t > 0])
    m["interlacements.local_time_pmf.s"] = total("interlacements.local_time_pmf")
    m["interlacements.self_s"] = layer_self("interlacements")

    build = "ring_kernel.SurvivalKernel.__init__"
    m["ring_kernel.kernel_build.n80.s"] = total(build, n=80)
    m["ring_kernel.kernel_build.n160.s"] = total(build, n=160)
    m["ring_kernel.kernel_bytes.n160"] = extras.get("kernel_bytes_n160", 0)
    m["ring_kernel.step_table_bytes.n160"] = extras.get("step_table_bytes_n160", 0)
    m["ring_kernel.step_table.n160.s"] = total(
        "ring_kernel.SurvivalKernel._step_up_table", n=160)
    m["ring_kernel.kernel_builds"] = count(build)
    m["ring_kernel.ring_paths.n80.s"] = total("ring_kernel._ring_paths_batch", n=80)
    m["ring_kernel.ring_local_time_batch.s"] = total("ring_kernel.ring_local_time_batch")
    pi4 = {n: total("ring_kernel.verify_pi4", n=n) for n in (200, 400)}
    m["ring_kernel.verify_pi4.n200.s"] = pi4[200]
    m["ring_kernel.verify_pi4.n400.s"] = pi4[400]
    m["ring_kernel.verify_pi4.n_exponent"] = _slope(
        [(n, t) for n, t in pi4.items() if t > 0])
    m["ring_kernel.h_dp.n1000.s"] = total("ring_kernel.h_dp", n=1000)
    m["ring_kernel.h_spectral.n1000.s"] = total("ring_kernel.h_spectral", n=1000)
    m["ring_kernel.no_hit.n120.s"] = total("ring_kernel.no_hit_prob_exact", n_half=120)
    m["ring_kernel.self_s"] = layer_self("ring_kernel")

    harness = [s for s in spans if s.name == "mc.run_replicates"]
    chunks = [s for s in spans if s.name == "mc.chunk"]
    busy = sum(s.duration for s in chunks)
    capacity = sum(s.attrs["workers"] * s.duration for s in harness)
    m["mc.run_replicates.calls"] = len(harness)
    m["mc.run_replicates.s"] = sum(s.duration for s in harness)
    m["mc.chunks"] = len(chunks)
    m["mc.chunk_busy_s"] = busy
    m["mc.self_s"] = sum(own[s.id] for s in harness)
    m["mc.parallel_eff"] = busy / capacity if capacity > 0 else 0.0

    for name in ("estimate_hit_prob", "estimate_escape_prob", "simulate_hit_before",
                 "enumerate_paths", "endpoint_leq_prob"):
        m[f"core_walks.{name}.s"] = total(f"core_walks.{name}")
    m["core_walks.self_s"] = layer_self("core_walks")

    checks = {f"{k:02d}": 0.0 for k in range(1, 14)}
    for s in spans:
        hit = _CHECK.match(s.name)
        if hit:
            checks[hit.group(1)] += s.duration
    for k, t in checks.items():
        m[f"acceptance.check_{k}.s"] = t
    m["acceptance.verdicts_failed"] = extras.get("verdicts_failed", 0)
    m["acceptance.self_s"] = layer_self("acceptance")
    m["cli.self_s"] = layer_self("cli")

    m["rngs.generator.calls"] = count("rngs.RngState.generator")
    m["rngs.generator.s"] = total("rngs.RngState.generator")
    return m
