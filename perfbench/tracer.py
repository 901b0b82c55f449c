"""In-memory span tracer that wraps beamwatch's public functions from outside.

A target is named "module.function" (e.g. "nn.lstm_forward_batch"). While the
tracer is installed, every attribute of every loaded `beamwatch.*` module that
is bound to the target function is replaced by a timing wrapper, so calls made
through module attributes (`nn.lstm_forward_batch(...)`) and through names
imported with `from .x import f` are both seen. Leaving `installed()` puts
every original attribute back.

Two kinds of target:

- span targets record one span per call: name, start, end, parent span and
  run id, plus the time covered by child spans, so self time is exact;
- aggregate targets (per-window hot functions such as `nn.lstm_cell_forward`)
  only add to a call count and busy time, and charge their time to the
  enclosing span as child time.

A target that no longer exists (renamed or removed by a later change) is
recorded in `absent` and skipped; the run continues.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "beamwatch"

Counter = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    name: str
    aggregate: bool = False
    counter: Counter | None = None


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass
class Aggregate:
    calls: int = 0
    busy_s: float = 0.0


@dataclass
class Tracer:
    targets: list[Target]
    run_id: str = ""
    spans: list[Span] = field(default_factory=list)
    aggregates: dict[str, Aggregate] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    counter_errors: dict[str, str] = field(default_factory=dict)
    absent: set[str] = field(default_factory=set)
    _stack: list[Span] = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, e.g. around a CLI stage."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _count(self, target: Target, args, kwargs, result) -> None:
        try:
            values = target.counter(args, kwargs, result)
        except Exception as exc:  # a changed signature must not stop the run
            self.counter_errors[target.name] = f"{type(exc).__name__}: {exc}"
            return
        for key, value in values.items():
            self.add(f"{target.name}.{key}", value)

    def _wrap(self, target: Target, fn):
        if target.aggregate:
            agg = self.aggregates.setdefault(target.name, Aggregate())
            stack = self._stack

            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    agg.calls += 1
                    agg.busy_s += dt
                    if stack:
                        stack[-1].child_s += dt
            return aggregated

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if target.counter is not None:
                self._count(target, args, kwargs, result)
            return result
        return spanned

    # -- installation ----------------------------------------------------

    def _resolve(self, target: Target):
        module_name, _, attr = target.name.rpartition(".")
        try:
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return None
        fn = getattr(module, attr, None)
        return fn if callable(fn) else None

    @contextlib.contextmanager
    def installed(self):
        """Wrap every resolvable target; restore all attributes on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
            for target in self.targets:
                fn = self._resolve(target)
                if fn is None:
                    self.absent.add(target.name)
                    continue
                wrapper = self._wrap(target, fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            saved.append((module, attr, value))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    # -- summaries -------------------------------------------------------

    def by_name(self) -> dict[str, list[Span]]:
        out: dict[str, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.name, []).append(span)
        return out

    def subtree_self_s(self, root: Span) -> float:
        """Sum of self times over `root` and every span below it, counting
        each aggregate call charged to them as self time of its own (they
        have no traced children). Equals root.duration by construction."""
        below = {root.id}
        for span in self.spans[root.id + 1:]:
            if span.parent in below:
                below.add(span.id)
        members = [s for s in self.spans if s.id in below]
        span_child_s = {s.id: 0.0 for s in members}
        for s in members:
            if s.id != root.id:
                span_child_s[s.parent] += s.duration
        aggregate_s = sum(s.child_s - span_child_s[s.id] for s in members)
        return sum(s.self_s for s in members) + aggregate_s

    def summary(self) -> dict[str, dict]:
        """Per-name calls, busy, self and medians, spans and aggregates."""
        out: dict[str, dict] = {}
        for name, spans in self.by_name().items():
            durations = [s.duration for s in spans]
            selfs = [s.self_s for s in spans]
            out[name] = {
                "calls": len(spans),
                "busy_s": sum(durations),
                "self_s": sum(selfs),
                "median_ms": 1e3 * statistics.median(durations),
                "self_median_ms": 1e3 * statistics.median(selfs),
            }
        for name, agg in self.aggregates.items():
            if agg.calls:
                out[name] = {"calls": agg.calls, "busy_s": agg.busy_s,
                             "self_s": agg.busy_s,
                             "median_ms": None, "self_median_ms": None}
        return out

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "span_fields": ["run_id", "id", "name", "parent", "start", "end", "child_s"],
            "spans": [[self.run_id, s.id, s.name, s.parent, s.start, s.end, s.child_s]
                      for s in self.spans],
            "aggregates": {k: [a.calls, a.busy_s] for k, a in self.aggregates.items()},
            "counts": self.counts,
            "absent": sorted(self.absent),
            "counter_errors": self.counter_errors,
        }
