"""Nested span tracing with a near-zero-cost path when disabled.

Spans come in two time domains:

- **wall-clock spans** (``Tracer.span`` / ``begin`` / ``end``) timestamped
  with :func:`time.perf_counter_ns`, for real elapsed time (gate
  optimizer passes, bench timings, whole simulator runs);
- **synthetic spans** (``Tracer.complete``) whose timestamps the caller
  supplies in any unit it likes -- the pipelined simulator emits its
  per-stage occupancy on a *cycle* timebase, one simulated cycle per
  trace microsecond, which is what makes the pipeline diagram legible in
  Perfetto.

The two domains are kept apart in the Chrome export by process id (see
:mod:`repro.obs.sinks`).  When tracing is off, the telemetry facade never
reaches this module: disabled ``span()`` calls return a shared no-op
context manager (:data:`NULL_SPAN`), so the hot-path cost is one branch.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Process-id namespaces for the Chrome export.
PID_WALL = 1       # real-time spans (perf_counter_ns domain)
PID_PIPELINE = 2   # synthetic cycle-domain spans from the pipeline
PID_PROFILE = 3    # profiler flamegraph (attributed-cycle domain)
PID_WORKERS = 4    # --jobs fan-out worker heartbeats (wall-clock domain)


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


NULL_SPAN = _NullSpan()


@dataclass
class SpanRecord:
    """One completed span."""

    name: str
    cat: str
    ts_ns: int          # start timestamp (ns in its domain)
    dur_ns: int         # duration (ns in its domain)
    pid: int = PID_WALL
    tid: str = "main"
    depth: int = 0
    args: dict = field(default_factory=dict)


@dataclass
class InstantRecord:
    """A zero-duration marker event."""

    name: str
    ts_ns: int
    pid: int = PID_WALL
    tid: str = "main"
    args: dict = field(default_factory=dict)


@dataclass
class CounterRecord:
    """A sampled counter value (renders as a graph track in Perfetto)."""

    name: str
    ts_ns: int
    value: float
    pid: int = PID_WALL


class Tracer:
    """Collects span/instant/counter events, bounded by ``max_events``.

    Events past the cap are counted in ``dropped`` rather than silently
    vanishing.
    """

    def __init__(self, max_events: int = 1_000_000):
        self.max_events = max_events
        self.spans: list[SpanRecord] = []
        self.instants: list[InstantRecord] = []
        self.counters: list[CounterRecord] = []
        self.dropped = 0
        self._stack: list[tuple[str, str, int, dict]] = []

    # -- wall-clock spans ----------------------------------------------------

    def begin(self, name: str, cat: str = "", **args) -> None:
        """Open a nested span; close with :meth:`end`."""
        self._stack.append((name, cat, time.perf_counter_ns(), args))

    def end(self) -> SpanRecord | None:
        """Close the innermost open span and record it."""
        if not self._stack:
            raise RuntimeError("Tracer.end() with no open span")
        name, cat, ts, args = self._stack.pop()
        record = SpanRecord(
            name=name,
            cat=cat,
            ts_ns=ts,
            dur_ns=time.perf_counter_ns() - ts,
            depth=len(self._stack),
            args=args,
        )
        self._push(self.spans, record)
        return record

    @contextmanager
    def span(self, name: str, cat: str = "", **args):
        """Context manager form of :meth:`begin`/:meth:`end`."""
        self.begin(name, cat, **args)
        try:
            yield self
        finally:
            self.end()

    # -- synthetic / preformed events ----------------------------------------

    def complete(self, name: str, ts_ns: int, dur_ns: int, *,
                 cat: str = "", pid: int = PID_WALL, tid: str = "main",
                 **args) -> None:
        """Record a span whose timestamps the caller already knows."""
        self._push(self.spans, SpanRecord(
            name=name, cat=cat, ts_ns=ts_ns, dur_ns=dur_ns,
            pid=pid, tid=tid, args=args,
        ))

    def instant(self, name: str, ts_ns: int | None = None, *,
                pid: int = PID_WALL, tid: str = "main", **args) -> None:
        """Record a point-in-time marker."""
        if ts_ns is None:
            ts_ns = time.perf_counter_ns()
        self._push(self.instants, InstantRecord(
            name=name, ts_ns=ts_ns, pid=pid, tid=tid, args=args,
        ))

    def sample(self, name: str, value: float, ts_ns: int | None = None, *,
               pid: int = PID_WALL) -> None:
        """Record one point of a counter time series."""
        if ts_ns is None:
            ts_ns = time.perf_counter_ns()
        self._push(self.counters, CounterRecord(
            name=name, ts_ns=ts_ns, value=value, pid=pid,
        ))

    # -- internals ------------------------------------------------------------

    def _push(self, bucket: list, record) -> None:
        if len(self.spans) + len(self.instants) + len(self.counters) \
                >= self.max_events:
            self.dropped += 1
            return
        bucket.append(record)

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)
