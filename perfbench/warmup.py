"""Benchmark set-up: import ri1d, build a workload's inputs, one tiny call per layer.

Run as a script it is the set-up probe: it does the set-up in a fresh
interpreter, prints ``ready`` and exits, so the parent can time process
start to end of warm-up the way a user pays it on every CLI invocation::

    python3 perfbench/warmup.py --workload exact-scale --seed 7
"""

from __future__ import annotations

import argparse
import ctypes
import importlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: One BLAS thread: the harness workers are the only threads of the load
#: model. With two BLAS threads on two cores the Panjer dot products of
#: exact-scale switch between about 2.3 s and 5 s at x=200 from one minute
#: to the next, which no number of rounds can average out.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: glibc's mmap threshold while round 0 runs: fixed at 1 MiB, every array
#: of 1 MiB or more is mapped on its own and returned when freed, so the
#: peak RSS of round 0 is that of the live arrays. Under glibc's sliding
#: threshold the peak of identical sampling-scale runs spreads from 396 to
#: 458 MB (the two workers' arenas keep some freed 32 MB local-time arrays)
#: and selftest's moves with the seed (181 MB at seed 5, 212 MB at seed 6);
#: with it, round 0 peaks at 251-253 MB and 150-152 MB over ten seeds. The
#: page faults it costs make selftest about 8% slower, so the timed rounds
#: run with the threshold at glibc's sliding ceiling instead, and the trim
#: threshold at twice that, as glibc would have them once warmed up.
PEAK_MMAP_THRESHOLD = 1 << 20
TIMED_MMAP_THRESHOLD = 32 << 20
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


def configure_process() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    os.environ.update(BLAS_ENV)


def set_mmap_threshold(nbytes: int) -> bool:
    """Fix glibc's mmap threshold at nbytes and its trim threshold at twice
    that; False where the C library is not glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return (mallopt(_M_MMAP_THRESHOLD, nbytes) == 1
            and mallopt(_M_TRIM_THRESHOLD, 2 * nbytes) == 1)


def import_ri1d():
    """Import ri1d from this checkout's ``src/``, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    try:
        pkg = importlib.import_module("ri1d")
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ri1d from {SRC}: {exc}")
    if Path(pkg.__file__).resolve().parent != SRC / "ri1d":
        raise SystemExit(f"perfbench: ri1d resolved to {pkg.__file__}, not {SRC}")
    return pkg


def warm_up(workload: str, seed: int) -> None:
    """Build the workload's inputs and make one tiny call into every layer."""
    import numpy as np

    import workloads
    from ri1d import acceptance, cli, core_walks, interlacements, mc, ring_kernel, rngs

    if workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    gen = rngs.RngState(seed).generator()
    interlacements._simulate_window_batch(1.0, 2, 2, gen)
    interlacements.sample_local_times(3, 1.0, 4, gen)
    interlacements.local_time_pmf(2, 1.0)
    ring_kernel.SurvivalKernel(4, 8)._step_up_table()
    ring_kernel.h_spectral(4, 2, 8)
    ring_kernel.verify_pi4(4, 4, 2)
    mc.run_replicates(mc.Experiment("warm-up", lambda g, m: np.zeros(m, np.int64)),
                      2, seed, workloads.WORKERS[workload])
    core_walks.estimate_hit_prob(3, 2, 4, rngs.RngState(seed))
    acceptance.check_06_first_mode(seed)
    cli.build_parser().parse_args(["selftest", "--seed", str(seed)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    configure_process()
    import_ri1d()
    warm_up(args.workload, args.seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main()
