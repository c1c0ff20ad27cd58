"""In-memory spans recorded around calls into wsibp from outside the library.

Hooks replace module attributes (or static methods) for the duration of a
``with install(...)`` block, so the library itself is never edited. A hook
whose target no longer exists is reported as absent rather than raising, so
the benchmark keeps working after a refactor removes a private function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread; ``run`` tags each span's round."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self.enabled = True
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, counts: dict | None = None):
        if not self.enabled:
            yield {}
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(sid, name, time.perf_counter(), 0.0, parent, self.run,
                   dict(counts or {}))
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec.counts
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run checks without recording their library calls."""
        before, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = before

    def wrap(self, name: str, fn: Callable, counter: Callable | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if counter is not None:
                counts.update(counter(args, kwargs, result))
            return result
        return wrapper


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str  # "name" or "Class.name"
    span: str
    counter: Callable | None = None


@contextmanager
def install(tracer: Tracer, hooks: list[Hook]):
    """Patch each hook's target for the block; yields the absent span names."""
    undo, absent = [], []
    try:
        for hook in hooks:
            owner = importlib.import_module(hook.module)
            *path, name = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = inspect.getattr_static(owner, name, None) if owner is not None else None
            if raw is None:
                absent.append(hook.span)
                continue
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            wrapped = tracer.wrap(hook.span, fn, hook.counter)
            setattr(owner, name, staticmethod(wrapped) if is_static else wrapped)
            undo.append((owner, name, raw))
        yield absent
    finally:
        for owner, name, raw in reversed(undo):
            setattr(owner, name, raw)


# --- counters: work done, computed from argument shapes and file sizes -------

def fit_counts(args, kwargs, result) -> dict:
    bags, config = args[0], args[1]
    iters = len(result.trace)
    return {
        "iters": iters,
        "bag_iters": len(bags) * iters,
        "inst_iters": sum(b.n_instances for b in bags) * iters,
        "macs_per_iter": sum(b.n_instances * b.feature_dim for b in bags) * config.k_max,
    }


def _path_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    return os.path.getsize(path)


def bytes_read(args, kwargs, result) -> dict:
    return {"bytes_read": _path_bytes(args[0])}


def bytes_written(args, kwargs, result) -> dict:
    return {"bytes_written": _path_bytes(args[0])}


# --- aggregation ------------------------------------------------------------

def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    child = {s.id: 0.0 for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in child:
            child[s.parent] += s.seconds
    return {s.id: s.seconds - child[s.id] for s in spans}


def ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


def check_tree(spans: list[Span]) -> list[str]:
    """Problems with the span tree: unknown parents, children outside them."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end < s.start:
            problems.append(f"span {s.id} {s.name} ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"span {s.id} {s.name} has unknown parent {s.parent}")
        elif not (p.start <= s.start and s.end <= p.end and p.run == s.run):
            problems.append(f"span {s.id} {s.name} lies outside parent {p.id} {p.name}")
    return problems
