"""Command line surface: exact laws, samplers, and verification experiments.

Each subcommand only computes: it fills the values, tables and verdicts of
one run. :func:`main` records the run. It prints every value with 12
significant digits and every verdict line, and with --out also writes one
JSON object: the command, its inputs (the parsed arguments), the version,
seed and wall time, the environment (Python and numpy versions, the scipy
version read from package metadata or null, CPU count, and the resolved
worker count of a harness command, else null), and the values, tables and
verdicts.

The samplers and the harness commands take --seed. Only the four commands
that run the replicate harness take --workers: sample-localtime,
ring-localtime, verify and selftest. Only ``verify clt`` takes --alpha, --x
and --samples; every other verify target runs one acceptance check.
Exit codes: 0 success / all checks passed, 1 a verification verdict failed,
2 usage or domain error, or an input too large to compute.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from . import __version__, acceptance
from . import core_walks as cw
from . import interlacements as il
from . import ring_kernel as rk
from .capacity import IntervalSet, capacity, capacity_hat, equilibrium_measure
from .mc import Experiment, Verdict, default_workers, run_replicates
from .rngs import RngState

#: Parsed arguments that select or steer a run but are not among its inputs.
_NOT_INPUTS = ("func", "command", "target", "out", "workers")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_scalar(obj):
    """Coerce numpy scalars so json.dump never chokes on a result value."""
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _environment(args) -> dict:
    """Versions, CPU count and the harness worker count (None off the harness).

    scipy's version is read from its package metadata, None when scipy is
    absent: the program does not use scipy, and reading the metadata does
    not import it.
    """
    import importlib.metadata  # paid only by a run that writes its record
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    workers = None
    if hasattr(args, "workers"):
        workers = default_workers() if args.workers is None else args.workers
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "cpu_count": os.cpu_count(),
            "workers": workers}


def _verdict_dict(v: Verdict) -> dict:
    return {"name": v.name, "statistic": v.statistic, "threshold": v.threshold,
            "margin": v.margin, "passed": v.passed, "context": v.context}


class _Run:
    """One invocation: its command and inputs, and what the command computed."""

    def __init__(self, args):
        self.command = " ".join(filter(None, (args.command,
                                              getattr(args, "target", None))))
        self.inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
        self.values: dict = {}
        self.tables: dict = {}
        self.verdicts: list[Verdict] = []
        self._t0 = time.perf_counter()

    def emit(self, args) -> int:
        wall = time.perf_counter() - self._t0
        for k, v in self.values.items():
            print(f"{k} = {_fmt(v)}")
        for v in self.verdicts:
            print(v.line())
        if args.out:
            doc = {
                "command": self.command,
                "inputs": self.inputs,
                "version": __version__,
                "seed": getattr(args, "seed", None),
                "wall_time_s": wall,
                "environment": _environment(args),
                "values": self.values,
                "tables": {k: [list(r) for r in t] for k, t in self.tables.items()},
                "verdicts": [_verdict_dict(v) for v in self.verdicts],
            }
            with open(args.out, "w", encoding="utf-8") as f:
                json.dump(doc, f, indent=2, default=_json_scalar)
                f.write("\n")
        return 0 if all(v.passed for v in self.verdicts) else 1


# -- exact computations --------------------------------------------------------

def cmd_vacant_exact(args, run: _Run) -> None:
    A = IntervalSet(args.min, args.max)
    run.values["vacant_prob"] = il.vacant_prob_exact(A, args.alpha)


def cmd_capacity(args, run: _Run) -> None:
    A = IntervalSet(args.min, args.max)
    run.values["capacity"] = capacity(A)
    run.values["capacity_hat"] = capacity_hat(A)
    eq = equilibrium_measure(A)
    for site, mass in sorted(eq.masses.items()):
        run.values[f"equilibrium[{site}]"] = mass


def cmd_count_paths(args, run: _Run) -> None:
    run.values["count"] = cw.count_paths(args.x, args.delta, args.k)


def cmd_eval_h(args, run: _Run) -> None:
    if args.backend in ("dp", "both"):
        run.values["h_dp"] = rk.h_dp(args.n, args.x, args.t)
    if args.backend in ("spectral", "both"):
        run.values["h_spectral"] = rk.h_spectral(args.n, args.x, args.t)
    if args.backend == "asymptotic":
        val, ok = rk.h_asymptotic(args.n, args.x, args.t)
        run.values["h_asymptotic"] = val
        run.values["in_regime"] = ok


def cmd_ring_vacant_exact(args, run: _Run) -> None:
    run.values["vacant_prob"] = rk.vacant_prob_ring_exact(
        args.n, args.t, args.x0, args.a, args.b)


def cmd_localtime_pmf(args, run: _Run) -> None:
    law = il.local_time_pmf(args.x, args.alpha, args.s_max)
    run.values["mean"] = law.mean()
    run.values["variance"] = law.variance()
    run.values["tail_mass"] = law.tail_mass
    run.values["truncation_warning"] = law.truncation_warning
    run.tables["pmf"] = [("s", "probability")] + \
        [(s, float(p)) for s, p in enumerate(law.pmf)]
    if not args.out:
        for s, p in enumerate(law.pmf):
            print(f"pmf[{s}] = {_fmt(float(p))}")


def cmd_localtime_cf(args, run: _Run) -> None:
    val = il.local_time_cf(args.x, args.alpha, args.t)
    run.values["real"] = val.real
    run.values["imag"] = val.imag
    run.values["modulus"] = abs(val)


# -- samplers ------------------------------------------------------------------

def cmd_sample_window(args, run: _Run) -> None:
    sample = il.sample_window(args.alpha, args.L, RngState(args.seed))
    run.values["trajectory_count"] = sample.trajectory_count
    run.values["vacant_neg_edge"] = sample.vacant_interval[0]
    run.values["vacant_pos_edge"] = sample.vacant_interval[1]
    run.tables["visits"] = [("site", "visits")] + \
        [(s, c) for s, c in sorted(sample.visits.items())]
    if not args.out:
        for s, c in sorted(sample.visits.items()):
            print(f"visits[{s}] = {c}")


def _replicate(args, run: _Run, experiment: Experiment) -> None:
    """Mean, variance and empirical pmf of ``args.samples`` harness draws."""
    summary = run_replicates(experiment, args.samples, args.seed, args.workers)
    run.values["mean"] = summary.mean
    run.values["variance"] = summary.variance
    run.tables["pmf"] = [("value", "frequency")] + \
        [(s, float(p)) for s, p in enumerate(summary.pmf) if p > 0]


def cmd_sample_localtime(args, run: _Run) -> None:
    _replicate(args, run, Experiment(
        "local-time", lambda g, m: il.sample_local_times(args.x, args.alpha, m, g)))


def cmd_sample_ring(args, run: _Run) -> None:
    path = rk.sample_ring_path(args.n, args.t, args.x0, RngState(args.seed))
    run.values["final"] = path.final
    run.values["min"] = min(path.positions)
    run.values["max"] = max(path.positions)
    run.tables["path"] = [("step", "position")] + \
        [(i, p) for i, p in enumerate(path.positions)]


def cmd_ring_localtime(args, run: _Run) -> None:
    _replicate(args, run, Experiment(
        "ring-local-time", lambda g, m: rk.ring_local_time_batch(
            args.n_half, args.alpha, args.x, m, g)))


# -- verification --------------------------------------------------------------

#: ``verify`` targets that run one acceptance check; ``clt`` is the other one.
VERIFY_CHECKS = {
    "martingale": acceptance.check_13_exact_identities,
    "pi4": acceptance.check_09_pi4,
    "mid-tail": acceptance.check_11_mid_tail,
    "no-hit": acceptance.check_10_no_hit,
    "endpoint": acceptance.check_12_path_counting,
    "asymp-h": acceptance.check_06_first_mode,
    "thm1": acceptance.check_07_ring_vacant,
    "thm3": acceptance.check_08_ring_local_time,
}


def cmd_verify_clt(args, run: _Run) -> None:
    alpha, x, M = args.alpha, args.x, args.samples
    run.verdicts.append(acceptance.clt_verdict(
        "clt KS to normal", alpha, x, M, args.seed, args.workers,
        f"alpha={alpha}, x={x}, M={M}"))


def cmd_verify(args, run: _Run) -> None:
    run.verdicts.extend(VERIFY_CHECKS[args.target](args.seed, args.workers))


def cmd_selftest(args, run: _Run) -> None:
    verdicts, timings = acceptance.run_all(args.seed, args.workers)
    run.verdicts.extend(verdicts)
    run.tables["check_wall_s"] = [("check", "wall_s"), *timings]


# -- parser --------------------------------------------------------------------

def _worker_count(text: str) -> int:
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(f"need at least 1 worker, got {workers}")
    return workers


def _add_common(p: argparse.ArgumentParser, func, seed: bool = False,
                workers: bool = False) -> None:
    p.add_argument("--out", default=None, help="write the run as JSON to this file")
    if seed:
        p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    if workers:
        p.add_argument("--workers", type=_worker_count, default=None,
                       help="parallel streams (default: RI1D_WORKERS or 1)")
    p.set_defaults(func=func)


class _Parser(argparse.ArgumentParser):
    """Takes no flag prefixes (``--x`` is not ``--x0``); sub-parsers share the class."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ri1d",
        description="One-dimensional random interlacements: exact laws, "
                    "samplers and verification experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vacant-exact", help="exact vacant probability of an interval")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    _add_common(p, cmd_vacant_exact)

    p = sub.add_parser("capacity", help="capacity and equilibrium measure")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    _add_common(p, cmd_capacity)

    p = sub.add_parser("sample-window", help="one interlacement window draw")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    _add_common(p, cmd_sample_window, seed=True)

    p = sub.add_parser("sample-localtime", help="replicated local-time draws")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--samples", type=int, default=10**5)
    _add_common(p, cmd_sample_localtime, seed=True, workers=True)

    p = sub.add_parser("localtime-pmf", help="exact local-time pmf")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--s-max", type=int, default=None)
    _add_common(p, cmd_localtime_pmf)

    p = sub.add_parser("localtime-cf", help="local-time characteristic function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_common(p, cmd_localtime_cf)

    p = sub.add_parser("eval-h", help="survival kernel h_n(x,t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--backend", choices=("dp", "spectral", "asymptotic", "both"),
                   default="both")
    _add_common(p, cmd_eval_h)

    p = sub.add_parser("ring-vacant-exact",
                       help="exact ring vacant-interval probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_common(p, cmd_ring_vacant_exact)

    p = sub.add_parser("sample-ring", help="one conditioned ring trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--x0", type=int, required=True)
    _add_common(p, cmd_sample_ring, seed=True)

    p = sub.add_parser("ring-localtime", help="replicated ring local times")
    p.add_argument("--n-half", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--samples", type=int, default=10**4)
    _add_common(p, cmd_ring_localtime, seed=True, workers=True)

    p = sub.add_parser("count-paths", help="origin-avoiding path count")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p, cmd_count_paths)

    targets = sub.add_parser("verify", help="run one verification experiment") \
        .add_subparsers(dest="target", required=True)
    p = targets.add_parser("clt", help="KS distance of standardized local times "
                                       "to the normal")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--x", type=int, default=400)
    p.add_argument("--samples", type=int, default=10**5)
    _add_common(p, cmd_verify_clt, seed=True, workers=True)
    for target, check in VERIFY_CHECKS.items():
        p = targets.add_parser(target, help=f"run acceptance.{check.__name__}")
        _add_common(p, cmd_verify, seed=True, workers=True)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common(p, cmd_selftest, seed=True, workers=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = _Run(args)
    try:
        args.func(args, run)
        return run.emit(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"ri1d: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
