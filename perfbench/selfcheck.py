"""Self-test of the benchmark itself.

For each workload and each seed it runs ``run.py`` once untraced and once
traced, each with the minimum number of rounds, and checks that:

- every run reports ``correct``;
- the traced and untraced runs at one seed give bit-identical results
  (summaries, verdict statistics and exact values, compared by fingerprint);
- no sampling-scale or exact-scale reference fails at any seed, and the
  selftest verdicts that fail are the same at every seed.

Run from the root of a checkout; takes about ten minutes on two cores::

    python3 perfbench/selfcheck.py --seeds 7 8
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
RUN_TIMEOUT_S = 600


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        failing_sets = set()
        for seed in args.seeds:
            plain, traced = run(workload, seed, 0), run(workload, seed, 1)
            for label, r in (("untraced", plain), ("traced", traced)):
                if not r["result"]["correct"]:
                    problems.append(f"{workload} seed {seed} {label}: not correct")
            if plain["record"]["fingerprint"] != traced["record"]["fingerprint"]:
                problems.append(f"{workload} seed {seed}: tracing changed the results")
            failing = tuple(op["name"] for op in plain["record"]["operations"]
                            if not op["passed"])
            failing_sets.add(failing)
            print(f"{workload} seed {seed}: {len(plain['record']['operations'])} "
                  f"operations, failing {list(failing)}, fingerprint "
                  f"{plain['record']['fingerprint'][:16]} untraced, "
                  f"{traced['record']['fingerprint'][:16]} traced", flush=True)
            if failing and workload != "selftest":
                problems.append(f"{workload} seed {seed}: references failed: {failing}")
        if len(failing_sets) > 1:
            problems.append(f"{workload}: failing verdicts depend on the seed: "
                            f"{sorted(failing_sets)}")
    for p in problems:
        print("PROBLEM", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
