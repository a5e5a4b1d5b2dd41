"""Span tracing around the public functions of the nu_analyzer modules.

The tracer replaces each public function with a wrapper, in its defining
module and in every ``nu_analyzer`` module that imported it by name, so calls
through ``cli.spectral_radius`` or ``balancer.nubar_exact`` are seen too.
Span stacks are thread-local; a span opened on a thread with an empty stack
(a ``bench`` worker) takes as parent the innermost open span of the thread
that issued the command. Spans stay in memory until written out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple

PACKAGE = "nu_analyzer"
MODULES = ("cli", "report_io", "spectral", "nubar", "nu_exact", "balancer", "magnitude", "_graph")

# Counters read off a traced function's return value; a missing attribute
# simply yields no counter.
RESULT_COUNTERS: dict[str, Callable[[Any], dict[str, int]]] = {
    "spectral.spectral_radius": lambda r: {
        "iterations": int(r.iterations),
        "unconverged": int(not r.converged),
    },
    "balancer.heuristic_balance": lambda r: {
        "updates": int(r.updates),
        "unconverged": int(not r.converged),
    },
}


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str  # "<module>.<function>", module without its leading underscore
    start: float
    end: float
    thread: int
    command: int | None
    counters: dict[str, int] | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.wrapped: set[str] = set()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._command: int | None = None
        self._origin: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_command(self, command: int) -> None:
        """Mark the calling thread as the issuer of command ``command``."""
        self._command = command
        self._origin = self._stack()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counters_of = RESULT_COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                origin = tracer._origin
                parent = origin[-1] if origin else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                counters = None
                if counters_of is not None and result is not None:
                    try:
                        counters = counters_of(result)
                    except (AttributeError, TypeError, ValueError):
                        counters = None
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident(),
                         tracer._command, counters)
                )

        return traced

    def install(self) -> None:
        """Wrap every public function of MODULES wherever it is bound by name."""
        replacement: dict[int, Callable] = {}
        for short in MODULES:
            try:
                mod = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short.lstrip('_')}.{attr}"
                replacement[id(obj)] = self._wrap(name, obj)
                self.wrapped.add(name)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replacement.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,name,start,end,thread,command\n")
            for s in self.spans:
                fh.write(
                    f"{s.id},{'' if s.parent is None else s.parent},{s.name},"
                    f"{s.start!r},{s.end!r},{s.thread},{'' if s.command is None else s.command}\n"
                )


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time of its children on the same thread.

    Same-thread children are strictly nested and sequential, so their sum is
    the part of the parent's interval they cover. Children on other threads
    run concurrently and are not subtracted.
    """
    by_id = {s.id: s for s in spans}
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        p = by_id.get(s.parent) if s.parent is not None else None
        if p is not None and p.thread == s.thread:
            covered[p.id] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


# (metric, unit, better); every name is reported per traced round.
PER_LAYER: list[tuple[str, str, str]] = [
    ("spectral.spectral_radius.calls", "calls/round", "lower"),
    ("spectral.spectral_radius.self_s", "s/round", "lower"),
    ("spectral.spectral_radius.iterations", "iters/round", "lower"),
    ("spectral.spectral_radius.unconverged", "calls/round", "lower"),
    ("spectral.nu_lower_bound.subsets", "calls/bound", "lower"),
    ("spectral.nu_lower_bound.self_s", "s/round", "lower"),
    ("nubar.nubar_exact.calls", "calls/round", "lower"),
    ("nubar.nubar_exact.self_s", "s/round", "lower"),
    ("nubar.balanced_solution.self_s", "s/round", "lower"),
    ("nu_exact.nu_oracle.self_s", "s/round", "lower"),
    ("balancer.heuristic_balance.calls", "calls/round", "lower"),
    ("balancer.heuristic_balance.self_s", "s/round", "lower"),
    ("balancer.heuristic_balance.updates", "updates/round", "lower"),
    ("balancer.heuristic_balance.unconverged", "calls/round", "lower"),
    ("balancer.convergence_study.self_s", "s/round", "lower"),
    ("balancer.run_trials.parallelism", "1", "higher"),
    ("report_io.self_s", "s/round", "lower"),
    ("cli.main.self_s", "s/round", "lower"),
    ("cli.build_report.self_s", "s/round", "lower"),
    ("magnitude.as_array.calls", "calls/round", "lower"),
    ("magnitude.as_array.self_s", "s/round", "lower"),
    ("graph.strongly_connected_components.calls", "calls/round", "lower"),
    ("graph.self_s", "s/round", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
    ("trace.coverage", "1", "higher"),
    ("fail_ratio", "1", "lower"),
]

# Functions a metric depends on; if one is no longer wrapped the metric is absent.
_NEEDS = {
    "spectral.nu_lower_bound.subsets": ("spectral.nu_lower_bound", "spectral.spectral_radius"),
    "balancer.run_trials.parallelism": ("balancer.run_trials",),
    "trace.coverage": ("cli.main",),
}


def _needs(metric: str) -> tuple[str, ...]:
    if metric in _NEEDS:
        return _NEEDS[metric]
    head, _, _ = metric.rpartition(".")
    return () if "." not in head else (head,)


def layer_metrics(spans: list[Span], command_wall: float) -> dict[str, float]:
    """Per-layer figures for one traced round (absent ones are left out later)."""
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    calls: dict[str, int] = defaultdict(int)
    self_by_fn: dict[str, float] = defaultdict(float)
    self_by_mod: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_by_fn[s.name] += selfs[s.id]
        self_by_mod[s.name.split(".")[0]] += selfs[s.id]
        for key, value in (s.counters or {}).items():
            counts[f"{s.name}.{key}"] += value
        if s.parent is not None:
            child_time[s.parent] += s.duration

    def under(s: Span, name: str) -> bool:
        p = by_id.get(s.parent) if s.parent is not None else None
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent) if p.parent is not None else None
        return False

    bound_calls = calls["spectral.nu_lower_bound"]
    subset_calls = sum(
        1 for s in spans if s.name == "spectral.spectral_radius" and under(s, "spectral.nu_lower_bound")
    )
    run_trials = [s for s in spans if s.name == "balancer.run_trials"]
    trials_wall = sum(s.duration for s in run_trials)
    mains = {s.id: s.thread for s in spans if s.name == "cli.main"}
    below_main = sum(s.duration for s in spans if mains.get(s.parent) == s.thread)

    out: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        fn, _, leaf = metric.rpartition(".")
        if leaf == "calls":
            out[metric] = calls[fn]
        elif leaf == "self_s":
            out[metric] = self_by_fn[fn] if "." in fn else self_by_mod[fn]
        elif leaf in ("iterations", "unconverged", "updates"):
            out[metric] = counts[metric]
    out["spectral.nu_lower_bound.subsets"] = subset_calls / bound_calls if bound_calls else 0.0
    out["balancer.run_trials.parallelism"] = (
        sum(child_time[s.id] for s in run_trials) / trials_wall if trials_wall else 0.0
    )
    out["trace.coverage"] = below_main / command_wall if command_wall else 0.0
    return out


def summarize(rounds: list[dict[str, float]], wrapped: set[str], extra: dict[str, float]) -> tuple[dict, list[str]]:
    """Median over traced rounds; metrics whose functions are gone are absent."""
    result, absent = {}, []
    for metric, unit, _ in PER_LAYER:
        if any(fn not in wrapped for fn in _needs(metric)):
            absent.append(metric)
            continue
        if metric in extra:
            value = extra[metric]
        else:
            value = statistics.median(r[metric] for r in rounds)
        result[metric] = {"value": value, "unit": unit}
    return result, absent
