"""Regenerate BENCH_kernel_cut.json: the kernel cut against its parent commit.

Run from the root of a checkout::

    python3 scripts/bench_kernel_cut.py --parent-rev e806b13

The parent revision is exported with ``git archive`` into a temporary
directory; both sides run from their own source tree and the same benchmark
settings (``perfbench/run.py --seconds 20 --trace 0``). Pair i runs the parent
first when i is even and the change first when i is odd. The file holds:

- ``exact-scale``: PAIRS pairs of ``wall_s`` and ``peak_rss_mb`` (the claim)
  and the other end-to-end metrics;
- ``selftest`` and ``sampling-scale``: OTHER_PAIRS pairs each, the
  no-regression check of the workloads that run the kernel but not the cut
  at size;
- ``kernel_build``: the median of BUILD_REPEATS builds of
  ``SurvivalKernel(n, ring_time_scale(n, alpha))`` in a fresh interpreter per
  side, with the rows it stores, or the MemoryError when the budget (half of
  physical memory) refuses it.
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
PAIRS = 10
OTHER_PAIRS = 5
SEED0 = 931
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "pass_ratio", "ops")
BUILD_CASES = ((40, 1.0), (80, 1.0), (160, 1.0), (400, 1.0), (400, 0.1))
BUILD_REPEATS = 3

BUILD_SNIPPET = """
import json, statistics, sys, time
sys.path.insert(0, "src")
from ri1d import ring_kernel as rk
n, alpha, reps = int(sys.argv[1]), float(sys.argv[2]), int(sys.argv[3])
t = rk.ring_time_scale(n, alpha)
out = {"n": n, "alpha": alpha, "t": t}
try:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        kernel = rk.SurvivalKernel(n, t)
        times.append(time.perf_counter() - start)
        out["rows"] = len(kernel._log_z)
        out["kernel_bytes"] = kernel._table.nbytes + kernel._log_z.nbytes
        del kernel
    out["build_s"] = statistics.median(times)
except MemoryError as err:
    out["refused"] = str(err)
print(json.dumps(out))
"""


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "20", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    fingerprint = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json")
                             .read_text(encoding="utf-8"))["fingerprint"]
    return {"seed": seed, "correct": last["correct"], "failed": last["failed"],
            "fingerprint": fingerprint,
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(workload: str, trees: dict, pairs: int) -> dict:
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_bench(trees[side], workload, SEED0 + i))
            print(workload, i, side, runs[side][-1]["metrics"], file=sys.stderr)
    out = {"seeds": [SEED0 + i for i in range(pairs)], "runs": runs,
           "fingerprints_equal": all(p["fingerprint"] == c["fingerprint"]
                                     for p, c in zip(runs["parent"], runs["change"]))}
    for m in METRICS:
        par = [r["metrics"][m] for r in runs["parent"]]
        chg = [r["metrics"][m] for r in runs["change"]]
        lower = m in ("wall_s", "setup_s", "peak_rss_mb")
        better = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        out[m] = {"parent": summary(par), "change": summary(chg),
                  "pairs_change_better": f"{better} of {pairs}",
                  "median_change": statistics.median(chg) / statistics.median(par) - 1
                  if statistics.median(par) else 0.0}
    return out


def kernel_builds(trees: dict) -> list[dict]:
    rows = []
    for i, (n, alpha) in enumerate(BUILD_CASES):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        row = {}
        for side in order:
            proc = subprocess.run(
                [sys.executable, "-c", BUILD_SNIPPET, str(n), str(alpha),
                 str(BUILD_REPEATS)], cwd=trees[side], capture_output=True,
                text=True, check=True)
            row[side] = json.loads(proc.stdout)
        rows.append({"n": n, "alpha": alpha, **row})
        print("kernel_build", row, file=sys.stderr)
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--out", default=str(ROOT / "BENCH_kernel_cut.json"))
    args = parser.parse_args()
    rev = subprocess.run(["git", "rev-parse", args.parent_rev], cwd=ROOT,
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        parent = Path(tmp)
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent)], input=archive, check=True)
        trees = {"parent": parent, "change": ROOT}
        doc = {
            "topic": "SurvivalKernel stores rows 0..min(t, s*+1) instead of 0..t",
            "command": f"python3 scripts/bench_kernel_cut.py --parent-rev {args.parent_rev}",
            "parent_commit": rev,
            "machine": {"python": platform.python_version(),
                        "machine": platform.machine(), "nproc": os.cpu_count()},
            "notes": "exact-scale fingerprints differ by design: its values "
                     "include h at t/3 and t, which the change reads past the "
                     "cut (at most 8.2e-15 relative from the parent's at "
                     "n = 160); selftest and sampling-scale must match",
            "exact-scale": compare("exact-scale", trees, PAIRS),
            "selftest": compare("selftest", trees, OTHER_PAIRS),
            "sampling-scale": compare("sampling-scale", trees, OTHER_PAIRS),
            "kernel_build": kernel_builds(trees),
        }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
