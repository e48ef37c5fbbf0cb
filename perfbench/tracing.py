"""In-memory span recorder installed around the public functions of ri1d.

Spans are recorded by wrappers that the benchmark installs on module and
class attributes; nothing inside ``src/`` is edited. Each wrapper is
installed where the name is looked up (``ri1d.acceptance.run_replicates``
as well as ``ri1d.mc.run_replicates``, the entries of
``acceptance.ALL_CHECKS``, methods on their classes), so calls made through
any import site are seen. A wrapper only times the call and forwards the
arguments unchanged, so tracing cannot move a single RNG draw.

A span is (id, parent, name, start, end, run id, attrs). The parent is the
innermost open span on the calling thread. Replicate chunks that run on a
harness worker thread take the enclosing ``mc.run_replicates`` span as
parent, and so does any other span opened on a worker thread with nothing
open on it yet (the per-chunk generator construction).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import threading
import types
from time import perf_counter
from typing import Callable, NamedTuple

#: Modules whose calls are traced, by their short layer name.
LAYERS = ("mc", "interlacements", "ring_kernel", "core_walks", "rngs",
          "acceptance", "cli")

#: Private callables that carry a layer's work and therefore get spans too.
EXTRA = {
    "interlacements": {"_simulate_window_batch"},
    "ring_kernel": {"_ring_paths_batch", "_propagate_killed"},
}
EXTRA_METHODS = {"SurvivalKernel": {"__init__", "_step_up_table"}}

#: Span attributes recorded from the call's bound arguments, by span name.
ATTRS: dict[str, Callable[[dict], dict]] = {
    "interlacements._simulate_window_batch": lambda a: {"L": a["L"], "M": a["M"]},
    "interlacements.sample_local_times": lambda a: {"x": a["x"], "M": a["M"]},
    "interlacements.local_time_pmf": lambda a: {"x": a["x"]},
    "ring_kernel.SurvivalKernel.__init__": lambda a: {"n": a["n"]},
    "ring_kernel.SurvivalKernel._step_up_table": lambda a: {"n": a["self"].n},
    "ring_kernel._ring_paths_batch": lambda a: {"n": a["kernel"].n},
    "ring_kernel.verify_pi4": lambda a: {"n": a["n"]},
    "ring_kernel.h_dp": lambda a: {"n": a["n"]},
    "ring_kernel.h_spectral": lambda a: {"n": a["n"]},
    "ring_kernel.no_hit_prob_exact": lambda a: {"n_half": a["n_half"]},
}


class Span(NamedTuple):
    id: int
    parent: int
    name: str
    start: float
    end: float
    run: str
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; :meth:`install` patches, :meth:`uninstall` restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._harness: list[int] = []  # open run_replicates spans
        self._patches: list[tuple[object, str, object]] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs=None, parent=None):
        """Run fn(*args, **kwargs) inside a span called ``name``."""
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is not self._main and self._harness:
                parent = self._harness[-1]
            else:
                parent = 0
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, start, end, self.run, attrs))

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "mc.run_replicates":
            return self._wrap_harness(fn)
        attr_fn = ATTRS.get(name)
        sig = inspect.signature(fn) if attr_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = attr_fn(sig.bind(*args, **kwargs).arguments) if attr_fn else None
            return self.call(name, fn, args, kwargs, attrs)
        return wrapper

    def _wrap_harness(self, fn):
        """run_replicates: time every chunk of the experiment's sampler."""
        sig = inspect.signature(fn)
        mc = inspect.getmodule(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            workers = bound.arguments.get("workers")
            if workers is None:
                workers = mc.default_workers()
            stack = self._stack()
            # the id the run_replicates span is about to receive is not known
            # until call() draws it, so the chunk wrapper reads it from here
            box = {}

            def timed(inner):
                def sample(gen, m):
                    return self.call("mc.chunk", inner, (gen, m), {},
                                     {"m": m}, parent=box["sid"])
                return sample

            exp = bound.arguments["experiment"]
            bound.arguments["experiment"] = dataclasses.replace(
                exp, sample=timed(exp.sample))

            def body():
                box["sid"] = stack[-1]
                self._harness.append(box["sid"])
                try:
                    return fn(*bound.args, **bound.kwargs)
                finally:
                    self._harness.pop()
            return self.call("mc.run_replicates", body, (), {},
                             {"workers": workers, "M": bound.arguments["M"]})
        return wrapper

    def _patch(self, owner, attr: str, name: str, fn) -> None:
        self._patches.append((owner, attr, fn))
        setattr(owner, attr, self._wrap(name, fn))

    def install(self, package) -> None:
        """Wrap every public callable of the traced layers at each lookup site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                   for short in LAYERS}
        owners = {m.__name__: short for short, m in modules.items()}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                home = owners.get(getattr(obj, "__module__", None))
                if home is None:
                    continue
                public = not attr.startswith("_")
                if isinstance(obj, types.FunctionType) and (
                        public or attr in EXTRA.get(home, ())):
                    self._patch(mod, attr, f"{home}.{obj.__name__}", obj)
                elif isinstance(obj, type) and public and home == short:
                    self._install_methods(home, obj)
        checks = modules["acceptance"].ALL_CHECKS
        for i, check in enumerate(list(checks)):
            self._patches.append((checks, i, check))
            checks[i] = self._wrap(f"acceptance.{check.__name__}", check)

    def _install_methods(self, home: str, cls: type) -> None:
        extra = EXTRA_METHODS.get(cls.__name__, ())
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr.startswith("_") and attr not in extra:
                continue
            self._patch(cls, attr, f"{home}.{cls.__name__}.{attr}", obj)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            if isinstance(attr, int):
                owner[attr] = fn
            else:
                setattr(owner, attr, fn)
        self._patches.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover.

    Children on worker threads can overlap each other, so coverage is the
    length of the union of the child intervals clipped to the parent.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        hi = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, end = max(c.start, hi), min(c.end, s.end)
            if end > lo:
                covered += end - lo
                hi = end
        out[s.id] = s.duration - covered
    return out
