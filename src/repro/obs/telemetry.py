"""The telemetry facade: one object owning metrics + tracer + sinks.

A :class:`Telemetry` bundles a :class:`~repro.obs.metrics.MetricRegistry`
and a :class:`~repro.obs.spans.Tracer` and knows how to render both
through every sink.  It also carries the domain-specific hook methods the
instrumented layers call (``qat_executed``, ``publish_pipeline`` ...), so
metric naming lives in exactly one file.

Two flags control cost:

- ``enabled=False`` -- everything is inert; ``span()`` returns the shared
  no-op context manager and the instrumented modules never call in,
  because :mod:`repro.obs.runtime` only sets its ``active`` guard for
  enabled instances.
- ``tracing=False`` -- metrics still accumulate but no span/instant/
  counter events are recorded; use this when you want the report without
  the per-instruction event volume.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.obs.metrics import Counter, Gauge, Histogram, MetricRegistry
from repro.obs.sinks import (
    chrome_trace,
    events_jsonl,
    render_report,
    write_trace,
)
from repro.obs.spans import NULL_SPAN, Tracer


class TimerHandle:
    """Yielded by :meth:`Telemetry.timer`; carries the elapsed seconds."""

    __slots__ = ("elapsed",)

    def __init__(self) -> None:
        self.elapsed = 0.0


class Telemetry:
    """Metrics + spans + sinks behind one handle."""

    def __init__(self, enabled: bool = True, tracing: bool = True,
                 max_events: int = 1_000_000):
        self.enabled = enabled
        self.tracing = tracing and enabled
        self.metrics = MetricRegistry()
        self.tracer = Tracer(max_events=max_events)
        #: optional :class:`repro.obs.profile.Profiler`; while attached,
        #: Qat kernel bit volume is also credited to the instruction the
        #: profiler currently has in EX (per-PC attribution).
        self.profiler = None

    # -- instrument passthrough ----------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self.metrics.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.metrics.gauge(name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self.metrics.histogram(name, help)

    # -- spans and timers -----------------------------------------------------

    def span(self, name: str, cat: str = "", **args):
        """Nested wall-clock span; no-op context manager when disabled."""
        if not self.tracing:
            return NULL_SPAN
        return self.tracer.span(name, cat, **args)

    @contextmanager
    def timer(self, name: str, cat: str = "timing"):
        """Time a block; the handle's ``.elapsed`` is seconds.

        The duration lands in histogram ``name`` (and, when tracing, as a
        span), so repeated timings of the same quantity accumulate into a
        percentile summary instead of being thrown away -- this is the
        single timing pathway the benchmarks use.
        """
        handle = TimerHandle()
        start = time.perf_counter_ns()
        try:
            yield handle
        finally:
            dur = time.perf_counter_ns() - start
            handle.elapsed = dur / 1e9
            if self.enabled:
                self.metrics.histogram(name).observe(handle.elapsed)
                if self.tracing:
                    self.tracer.complete(name, ts_ns=start, dur_ns=dur,
                                         cat=cat, tid="bench")

    # -- domain hooks (called by instrumented layers when runtime.active) -----

    def qat_executed(self, mnemonic: str, t0_ns: int) -> None:
        """One Qat coprocessor instruction finished executing."""
        dur = time.perf_counter_ns() - t0_ns
        self.metrics.counter("qat.ops").inc()
        self.metrics.counter(f"qat.ops.{mnemonic}").inc()
        self.metrics.histogram("qat.op_seconds").observe(dur / 1e9)
        if self.tracing:
            self.tracer.complete(f"qat.{mnemonic}", ts_ns=t0_ns, dur_ns=dur,
                                 cat="qat", tid="qat")

    def qat_kernel(self, op: str, words: int) -> None:
        """One Qat op swept ``words`` 64-bit words of a packed register row."""
        bits = words << 6
        self.metrics.counter("qat.aob_bits").add(bits)
        self.metrics.counter(f"qat.bits.{op}").add(bits)
        if self.profiler is not None:
            self.profiler.note_qat_bits(bits)

    def checkpoint_op(self, op: str, t0_ns: int, ok: bool = True) -> None:
        """One checkpoint operation (``capture``/``save``/``load``/
        ``verify``/``restore``) finished after ``t0_ns``."""
        dur = time.perf_counter_ns() - t0_ns
        self.metrics.counter(f"checkpoint.{op}").inc()
        self.metrics.histogram(f"checkpoint.{op}_seconds").observe(dur / 1e9)
        if not ok:
            self.metrics.counter(f"checkpoint.{op}_failures").inc()
        if self.tracing:
            self.tracer.complete(f"checkpoint.{op}", ts_ns=t0_ns, dur_ns=dur,
                                 cat="faults", tid="faults")

    def fault_run(self, outcome: str, seconds: float) -> None:
        """One fault-campaign run classified as ``outcome``."""
        self.metrics.counter(f"faults.{outcome}").inc()
        self.metrics.counter("faults.runs").inc()
        self.metrics.histogram("faults.run_seconds").observe(seconds)

    def supervisor_run(self, stats: dict) -> None:
        """One supervised fan-out finished; ``stats`` is
        :meth:`repro.runtime.supervisor.SupervisorStats.as_dict` --
        ``{"retries", "timeouts", "crashes", "errors",
        "workers.replaced", "shards.toxic"}``.  Recorded even when all
        zero so a clean run snapshots an explicit all-clear."""
        for key, value in stats.items():
            self.metrics.counter(f"supervisor.{key}").add(value)

    def publish_pipeline(self, stats) -> None:
        """Fold one pipelined run's :class:`PipelineStats` into the registry."""
        m = self.metrics
        m.counter("pipeline.cycles").add(stats.cycles)
        m.counter("pipeline.retired").add(stats.retired)
        m.counter("cpu.instructions").add(stats.retired)
        m.counter("pipeline.stall.data").add(stats.stall_data)
        m.counter("pipeline.stall.load_use").add(stats.stall_load_use)
        m.counter("pipeline.stall.structural").add(stats.stall_structural)
        m.counter("pipeline.fetch.extra_cycles").add(stats.fetch_extra)
        m.counter("pipeline.flush.branch").add(stats.branch_flushes)
        m.counter("pipeline.squashed").add(stats.squashed)
        m.counter("pipeline.traps").add(stats.traps)
        m.gauge("pipeline.cpi").set(stats.cpi)

    # -- sinks ----------------------------------------------------------------

    def report(self) -> str:
        """Human-readable text report (the ``--stats`` output)."""
        return render_report(self.metrics, self.tracer)

    def chrome_trace(self) -> dict:
        """The trace as a Chrome ``trace_event`` object."""
        return chrome_trace(self.metrics, self.tracer)

    def write_chrome_trace(self, path: str) -> None:
        write_trace(path, self.chrome_trace())

    def events_jsonl(self) -> str:
        return events_jsonl(self.metrics, self.tracer)

    def write_events_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.events_jsonl())
