"""Span tracer that wraps the library's functions from outside the library.

`Tracer.install()` replaces every binding of each traced function in every
loaded `bergman_zeros` module (so names imported with `from .x import f`
are covered too) by a wrapper that records one span per call;
`uninstall()` puts the originals back.  Spans are kept in memory and
written out once, after the measurement.

A span on a worker thread whose own stack is empty takes as parent the
innermost open span of the main thread: the experiment drivers hand
chunks to a thread pool and block until it finishes, so that span is the
one that caused the work.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from time import perf_counter
from typing import Callable, NamedTuple

TRACED_MODULES = ("disc", "model", "sections", "statistics", "experiments", "cli")

# private names traced as well: the handler of `bergman-zeros run`
EXTRA_FUNCTIONS = {"cli": ("_run",)}


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    thread: int
    run: str
    counts: dict | None


def _bound_key(signature: inspect.Signature, args, kwargs) -> tuple:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments.values())


def _counters(name: str, fn: Callable) -> Callable | None:
    """Per-call counts recorded at the layer boundary, keyed by span name."""
    if name == "sections.count_zeros_batch":
        return lambda args, kwargs, result: {"samples": len(result)}
    if name == "sections.find_zeros":
        signature = inspect.signature(fn)

        def find_zeros_counts(args, kwargs, result):
            sample = signature.bind(*args, **kwargs).arguments["sample"]
            return {
                "kept": result.total,
                "eigenvalues": sample.space.L - 1,
                "diagnostics": len(result.diagnostics),
            }

        return find_zeros_counts
    if name == "disc.adaptive_truncation":
        signature = inspect.signature(fn)
        return lambda args, kwargs, result: {"key": _bound_key(signature, args, kwargs)}
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._restore: list[tuple[object, str, Callable]] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        if stack is not self._main_stack:
            try:
                return self._main_stack[-1]
            except IndexError:
                pass
        return -1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        counter = _counters(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            run = tracer.run
            stack.append(sid)
            counts = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), run, counts)
                )

        return traced

    def install(self, package: str = "bergman_zeros") -> None:
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"{package}.{short}")
            extra = EXTRA_FUNCTIONS.get(short, ())
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr.lstrip('_')}", obj))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = s._asdict()
                if s.counts and "key" in s.counts:
                    record["counts"] = {"key": repr(s.counts["key"])}
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the part covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out: dict[str, float] = {}
    for s in spans:
        kids = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, ())]
        covered = _covered([k for k in kids if k[1] > k[0]])
        out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - covered
    return out
