"""Benchmark of ri1d: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout (it imports ri1d from ``src/``)::

    python3 perfbench/run.py --workload selftest --seed 7 --seconds 20 --trace 0

A run first times the set-up SETUP_PROBES times in fresh interpreters, then
warms up in-process and repeats the workload's fixed work in rounds until
``--seconds`` have passed (at least MIN_ROUNDS rounds; with ``--trace 1``
untraced and traced rounds alternate, starting untraced). Every round must
reproduce the same result bits, traced or not. The last stdout line is one JSON object:
``correct``, ``attempted`` and ``failed`` (operations over all rounds) and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ones with ``--trace 1``. A full record (environment, every
operation's statistic and threshold, round times) is written to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` and, when traced, the spans
to ``.bench_out/<workload>-seed<seed>.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import warmup
from layers import layer_metrics
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
#: Round 0 warms up and gives peak_rss_mb; it is checked but not timed
#: into wall_s (it runs about 8% slower than later rounds, and under
#: another malloc setting). At least two more rounds follow.
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 60


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its warm-up."""
    cmd = [sys.executable, str(HERE / "warmup.py"), "--workload", workload,
           "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
            line = proc.stdout.readline() if ready else ""
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up probe failed (exit {proc.returncode})")
    return elapsed


def git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int, mallopt: bool) -> dict:
    import numpy
    import scipy

    import workloads

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": workloads.WORKERS[workload],
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 **{v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}},
        "malloc_mmap_threshold": {
            "round0": warmup.PEAK_MMAP_THRESHOLD, "timed": warmup.TIMED_MMAP_THRESHOLD,
        } if mallopt else None,
        "seed": seed,
        "git_commit": git_commit(),
    }


def run_rounds(pkg, workload: str, seed: int, seconds: float, trace: bool):
    """Repeat the workload until ``seconds`` pass; alternate tracing if asked.

    Returns the rounds, the spans, the process's peak RSS in KiB at the end
    of round 0, and whether glibc's thresholds could be set.
    """
    import workloads

    fn = workloads.WORKLOADS[workload]
    tracer = Tracer()
    rounds = []
    mallopt = warmup.set_mmap_threshold(warmup.PEAK_MMAP_THRESHOLD)
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        run_id = f"{workload}/seed{seed}/round{len(rounds)}"
        if traced:
            tracer.run = run_id
            tracer.install(pkg)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result = fn(seed, OUT)
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            if traced:
                tracer.uninstall()
        rounds.append({"run": run_id, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                       "result": result})
        if len(rounds) == 1:
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            mallopt = mallopt and warmup.set_mmap_threshold(warmup.TIMED_MMAP_THRESHOLD)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
            return rounds, tracer.spans, peak_kib, mallopt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if args.seed < 0:
        raise SystemExit("perfbench: seed must be nonnegative")
    warmup.configure_process()
    pkg = warmup.import_ri1d()
    setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    warmup.warm_up(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    rounds, spans, peak_kib, mallopt = run_rounds(
        pkg, args.workload, args.seed, args.seconds, bool(args.trace))
    first = rounds[0]["result"]
    prints = {json.dumps(r["result"].fingerprint()) for r in rounds}
    correct = len(prints) == 1 and all(r["result"].well_formed for r in rounds)
    attempted = sum(len(r["result"].checks) for r in rounds)
    failed = sum(not c.passed for r in rounds for c in r["result"].checks)

    untraced = [r["wall_s"] for r in rounds[1:] if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if args.trace:
        per_round = [layer_metrics([s for s in spans if s.run == r["run"]],
                                   r["result"].extras) for r in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in traced) / statistics.median(untraced))
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kib / 1024,
            "pass_ratio": (attempted - failed) / attempted,
            "ops": len(first.checks),
        }
        declared = spec["end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit(f"perfbench: metrics {sorted(set(values))} do not match "
                         "BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}

    tag = f"{args.workload}-seed{args.seed}"
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.workload, args.seed, mallopt),
        "setup_s": setup,
        "rounds": [{k: v for k, v in r.items() if k != "result"} for r in rounds],
        "operations": [c.record() for c in first.checks],
        "fingerprint": hashlib.sha256(prints.pop().encode()).hexdigest()
        if len(prints) == 1 else None,
        "correct": correct,
        "metrics": metrics,
    }
    (OUT / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with open(OUT / f"{tag}.spans.jsonl", "w", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(s._asdict()) + "\n")

    print("environment:", json.dumps(record["environment"]))
    for c in first.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: statistic "
              f"{c.statistic:.6g} vs threshold {c.threshold:.6g}")
    for r in record["rounds"]:
        print(f"{r['run']}: wall {r['wall_s']:.3f} s, cpu {r['cpu_s']:.3f} s"
              f"{' (traced)' if r['traced'] else ''}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
