"""Command line surface: exact laws, samplers, and verification experiments.

Every subcommand echoes its inputs, prints numeric results with 12
significant digits, and can write a JSON object or CSV rows via --out.
Exit codes: 0 success / all checks passed, 1 a verification verdict failed,
2 usage or domain error, or an input too large to compute.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time

import numpy as np

from . import __version__, acceptance
from . import core_walks as cw
from . import interlacements as il
from . import ring_kernel as rk
from .capacity import IntervalSet, capacity, capacity_hat, equilibrium_measure
from .mc import Experiment, Verdict, ks_distance_to_normal, run_replicates
from .rngs import RngState


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _json_scalar(obj):
    """Coerce numpy scalars so json.dump never chokes on a result value."""
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _verdict_dict(v: Verdict) -> dict:
    return {"name": v.name, "statistic": v.statistic, "threshold": v.threshold,
            "passed": v.passed, "context": v.context}


class _Run:
    """Accumulates scalar values, tables and verdicts for one invocation."""

    def __init__(self, command: str, inputs: dict):
        self.command = command
        self.inputs = inputs
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
            if args.format == "json":
                doc = {
                    "command": self.command,
                    "inputs": self.inputs,
                    "version": __version__,
                    "seed": getattr(args, "seed", None),
                    "wall_time_s": wall,
                    "values": self.values,
                    "tables": {k: [list(r) for r in t] for k, t in self.tables.items()},
                    "verdicts": [_verdict_dict(v) for v in self.verdicts],
                }
                with open(args.out, "w", encoding="utf-8") as f:
                    json.dump(doc, f, indent=2, default=_json_scalar)
                    f.write("\n")
            else:
                with open(args.out, "w", encoding="utf-8", newline="") as f:
                    w = csv.writer(f)
                    w.writerow(["key", "value"])
                    for k, v in self.inputs.items():
                        w.writerow([f"input.{k}", _fmt(v)])
                    w.writerow(["version", __version__])
                    w.writerow(["wall_time_s", _fmt(wall)])
                    for k, v in self.values.items():
                        w.writerow([k, _fmt(v)])
                    for name, table in self.tables.items():
                        w.writerow([])
                        w.writerow(list(table[0]))
                        for row in table[1:]:
                            w.writerow([_fmt(c) for c in row])
                    if self.verdicts:
                        w.writerow([])
                        w.writerow(["verdict", "statistic", "threshold", "passed"])
                        for v in self.verdicts:
                            w.writerow([v.name, _fmt(v.statistic),
                                        _fmt(v.threshold), v.passed])
        return 0 if all(v.passed for v in self.verdicts) else 1


# -- exact computations --------------------------------------------------------

def cmd_vacant_exact(args) -> int:
    A = IntervalSet(args.min, args.max)
    run = _Run("vacant-exact", {"alpha": args.alpha, "min": args.min, "max": args.max})
    run.values["vacant_prob"] = il.vacant_prob_exact(A, args.alpha)
    return run.emit(args)


def cmd_capacity(args) -> int:
    A = IntervalSet(args.min, args.max)
    run = _Run("capacity", {"min": args.min, "max": args.max})
    run.values["capacity"] = capacity(A)
    run.values["capacity_hat"] = capacity_hat(A)
    eq = equilibrium_measure(A)
    for site, mass in sorted(eq.masses.items()):
        run.values[f"equilibrium[{site}]"] = mass
    return run.emit(args)


def cmd_count_paths(args) -> int:
    run = _Run("count-paths", {"x": args.x, "delta": args.delta, "k": args.k})
    run.values["count"] = cw.count_paths(args.x, args.delta, args.k)
    return run.emit(args)


def cmd_eval_h(args) -> int:
    run = _Run("eval-h", {"n": args.n, "x": args.x, "t": args.t,
                          "backend": args.backend})
    if args.backend in ("dp", "both"):
        run.values["h_dp"] = rk.h_dp(args.n, args.x, args.t)
    if args.backend in ("spectral", "both"):
        run.values["h_spectral"] = rk.h_spectral(args.n, args.x, args.t)
    if args.backend == "asymptotic":
        val, ok = rk.h_asymptotic(args.n, args.x, args.t)
        run.values["h_asymptotic"] = val
        run.values["in_regime"] = ok
    return run.emit(args)


def cmd_ring_vacant_exact(args) -> int:
    run = _Run("ring-vacant-exact", {"n": args.n, "t": args.t, "x0": args.x0,
                                     "a": args.a, "b": args.b})
    run.values["vacant_prob"] = rk.vacant_prob_ring_exact(
        args.n, args.t, args.x0, args.a, args.b)
    return run.emit(args)


def cmd_localtime_pmf(args) -> int:
    run = _Run("localtime-pmf", {"alpha": args.alpha, "x": args.x,
                                 "s_max": args.s_max})
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
    return run.emit(args)


def cmd_localtime_cf(args) -> int:
    run = _Run("localtime-cf", {"alpha": args.alpha, "x": args.x, "t": args.t})
    val = il.local_time_cf(args.x, args.alpha, args.t)
    run.values["real"] = val.real
    run.values["imag"] = val.imag
    run.values["modulus"] = abs(val)
    return run.emit(args)


# -- samplers ------------------------------------------------------------------

def cmd_sample_window(args) -> int:
    run = _Run("sample-window", {"alpha": args.alpha, "L": args.L,
                                 "seed": args.seed})
    sample = il.sample_window(args.alpha, args.L, RngState(args.seed))
    run.values["trajectory_count"] = sample.trajectory_count
    run.values["vacant_neg_edge"] = sample.vacant_interval[0]
    run.values["vacant_pos_edge"] = sample.vacant_interval[1]
    run.tables["visits"] = [("site", "visits")] + \
        [(s, c) for s, c in sorted(sample.visits.items())]
    if not args.out:
        for s, c in sorted(sample.visits.items()):
            print(f"visits[{s}] = {c}")
    return run.emit(args)


def cmd_sample_localtime(args) -> int:
    run = _Run("sample-localtime", {"alpha": args.alpha, "x": args.x,
                                    "samples": args.samples, "seed": args.seed})
    summary = run_replicates(
        Experiment("local-time",
                   lambda g, m: il.sample_local_times(args.x, args.alpha, m, g)),
        args.samples, args.seed, args.workers)
    run.values["mean"] = summary.mean
    run.values["variance"] = summary.variance
    run.tables["pmf"] = [("value", "frequency")] + \
        [(s, float(p)) for s, p in enumerate(summary.pmf) if p > 0]
    return run.emit(args)


def cmd_sample_ring(args) -> int:
    run = _Run("sample-ring", {"n": args.n, "t": args.t, "x0": args.x0,
                               "seed": args.seed})
    cfg = rk.RingConfig(args.n, args.t, args.x0)
    path = rk.sample_ring_path(cfg, RngState(args.seed))
    run.values["final"] = path.final
    run.values["min"] = min(path.positions)
    run.values["max"] = max(path.positions)
    run.tables["path"] = [("step", "position")] + \
        [(i, p) for i, p in enumerate(path.positions)]
    return run.emit(args)


def cmd_ring_localtime(args) -> int:
    run = _Run("ring-localtime", {"n_half": args.n_half, "alpha": args.alpha,
                                  "x": args.x, "samples": args.samples,
                                  "seed": args.seed})
    summary = run_replicates(
        Experiment("ring-local-time",
                   lambda g, m: rk.ring_local_time_batch(
                       args.n_half, args.alpha, args.x, m, g)),
        args.samples, args.seed, args.workers)
    run.values["mean"] = summary.mean
    run.values["variance"] = summary.variance
    run.tables["pmf"] = [("value", "frequency")] + \
        [(s, float(p)) for s, p in enumerate(summary.pmf) if p > 0]
    return run.emit(args)


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


def cmd_verify(args) -> int:
    run = _Run(f"verify {args.target}", {"seed": args.seed})
    if args.target == "clt":
        alpha, x, M = args.alpha, args.x, args.samples
        run.inputs.update({"alpha": alpha, "x": x, "samples": M})
        summary = run_replicates(
            Experiment("local-time",
                       lambda g, m: il.sample_local_times(x, alpha, m, g)),
            M, args.seed, args.workers, keep_sample=True)
        ks = ks_distance_to_normal(il.standardize_local_time(summary.sample, x, alpha))
        run.verdicts.append(Verdict("clt KS to normal", ks, 0.02,
                                    f"alpha={alpha}, x={x}, M={M}"))
    else:
        run.verdicts.extend(VERIFY_CHECKS[args.target](args.seed, args.workers))
    return run.emit(args)


def cmd_selftest(args) -> int:
    run = _Run("selftest", {"seed": args.seed})
    run.verdicts.extend(acceptance.run_all(args.seed, args.workers))
    return run.emit(args)


# -- parser --------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, seeded: bool = False) -> None:
    p.add_argument("--out", default=None, help="write results to this file")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    if seeded:
        p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
        p.add_argument("--workers", type=int, default=None,
                       help="parallel streams (default: RI1D_WORKERS or 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ri1d",
        description="One-dimensional random interlacements: exact laws, "
                    "samplers and verification experiments.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("vacant-exact", help="exact vacant probability of an interval")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_vacant_exact)

    p = sub.add_parser("capacity", help="capacity and equilibrium measure")
    p.add_argument("--min", type=int, required=True)
    p.add_argument("--max", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("sample-window", help="one interlacement window draw")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--L", type=int, required=True)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_sample_window)

    p = sub.add_parser("sample-localtime", help="replicated local-time draws")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--samples", type=int, default=10**5)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_sample_localtime)

    p = sub.add_parser("localtime-pmf", help="exact local-time pmf")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--s-max", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_localtime_pmf)

    p = sub.add_parser("localtime-cf", help="local-time characteristic function")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_localtime_cf)

    p = sub.add_parser("eval-h", help="survival kernel h_n(x,t)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--backend", choices=("dp", "spectral", "asymptotic", "both"),
                   default="both")
    _add_common(p)
    p.set_defaults(func=cmd_eval_h)

    p = sub.add_parser("ring-vacant-exact",
                       help="exact ring vacant-interval probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--x0", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_ring_vacant_exact)

    p = sub.add_parser("sample-ring", help="one conditioned ring trajectory")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--x0", type=int, required=True)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_sample_ring)

    p = sub.add_parser("ring-localtime", help="replicated ring local times")
    p.add_argument("--n-half", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--samples", type=int, default=10**4)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_ring_localtime)

    p = sub.add_parser("count-paths", help="origin-avoiding path count")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_count_paths)

    p = sub.add_parser("verify", help="run one verification experiment")
    p.add_argument("target", choices=("clt", *VERIFY_CHECKS))
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--x", type=int, default=400)
    p.add_argument("--samples", type=int, default=10**5)
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", help="run the full acceptance suite")
    _add_common(p, seeded=True)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, MemoryError) as exc:
        print(f"ri1d: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
