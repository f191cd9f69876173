"""Telemetry sinks: human-readable report, JSON-lines, Chrome trace_event.

Three views over one :class:`~repro.obs.metrics.MetricRegistry` +
:class:`~repro.obs.spans.Tracer` pair:

- :func:`render_report` -- the ``tangled run --stats`` text block, with a
  headline section for the quantities the paper argues about (CPI,
  stalls, Qat op volume, RE compression) followed by the full catalog;
- :func:`events_jsonl` -- one JSON object per line, machine-tailable;
- :func:`chrome_trace` -- the Chrome ``trace_event`` JSON object format
  (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
  loadable in ``chrome://tracing`` and https://ui.perfetto.dev.  Wall-
  clock spans land in process 1, the pipeline's cycle-domain spans in
  process 2 (1 simulated cycle rendered as 1 us), named via ``M``
  metadata events.
"""

from __future__ import annotations

import json

from repro.obs.metrics import Histogram, MetricRegistry
from repro.obs.spans import (
    PID_PIPELINE,
    PID_PROFILE,
    PID_WALL,
    PID_WORKERS,
    Tracer,
)


# ---------------------------------------------------------------------------
# Human-readable report
# ---------------------------------------------------------------------------

def _fmt(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return str(int(value))


def _headline(metrics: MetricRegistry) -> list[str]:
    """The paper-facing summary: always printed, even when zero."""
    stalls = sum(
        metrics.value(f"pipeline.stall.{kind}")
        for kind in ("data", "load_use", "structural")
    )
    hits = metrics.value("chunkstore.binop.hit")
    misses = metrics.value("chunkstore.binop.miss")
    lookups = hits + misses
    ratio = f"{hits / lookups:.2%}" if lookups else "n/a (no RE activity)"
    return [
        f"  pipeline CPI            : {metrics.value('pipeline.cpi'):.4f}",
        f"  pipeline cycles         : {_fmt(metrics.value('pipeline.cycles'))}",
        f"  pipeline stalls         : {_fmt(stalls)} "
        f"(data {_fmt(metrics.value('pipeline.stall.data'))}, "
        f"load-use {_fmt(metrics.value('pipeline.stall.load_use'))}, "
        f"structural {_fmt(metrics.value('pipeline.stall.structural'))})",
        f"  branch flushes          : "
        f"{_fmt(metrics.value('pipeline.flush.branch'))}",
        f"  instructions retired    : {_fmt(metrics.value('cpu.instructions'))}",
        f"  Qat coprocessor ops     : {_fmt(metrics.value('qat.ops'))}",
        f"  Qat AoB bit volume      : {_fmt(metrics.value('qat.aob_bits'))}",
        f"  chunk result reuse rate : {ratio}",
    ]


def render_report(metrics: MetricRegistry, tracer: Tracer | None = None) -> str:
    """Full text report: headline block, then every registered metric."""
    lines = ["== telemetry report ==", "headline:"]
    lines += _headline(metrics)
    counters = []
    gauges = []
    histograms = []
    for name, metric in metrics.items():
        if isinstance(metric, Histogram):
            s = metric.summary()
            pct = metric.percentiles((50, 95, 99))
            histograms.append(
                f"  {name}: n={s['count']} mean={s['mean']:.4g} "
                f"p50={pct['p50']:.4g} p95={pct['p95']:.4g} "
                f"p99={pct['p99']:.4g} max={s['max']:.4g}"
            )
        elif type(metric).__name__ == "Gauge":
            gauges.append(f"  {name} = {_fmt(metric.value)}")
        else:
            counters.append(f"  {name} = {_fmt(metric.value)}")
    if counters:
        lines += ["counters:"] + counters
    if gauges:
        lines += ["gauges:"] + gauges
    if histograms:
        lines += ["histograms:"] + histograms
    if tracer is not None and len(tracer):
        lines.append(
            f"trace: {len(tracer.spans)} spans, {len(tracer.instants)} "
            f"instants, {len(tracer.counters)} counter samples"
            + (f" ({tracer.dropped} dropped)" if tracer.truncated else "")
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSON-lines
# ---------------------------------------------------------------------------

def events_jsonl(metrics: MetricRegistry, tracer: Tracer) -> str:
    """Every metric and trace event as one JSON object per line."""
    lines = []
    for name, value in metrics.snapshot().items():
        lines.append(json.dumps(
            {"kind": "metric", "name": name, "value": value},
            sort_keys=True,
        ))
    for span in tracer.spans:
        lines.append(json.dumps({
            "kind": "span", "name": span.name, "cat": span.cat,
            "ts_ns": span.ts_ns, "dur_ns": span.dur_ns,
            "pid": span.pid, "tid": span.tid, "args": span.args,
        }, sort_keys=True))
    for inst in tracer.instants:
        lines.append(json.dumps({
            "kind": "instant", "name": inst.name, "ts_ns": inst.ts_ns,
            "pid": inst.pid, "tid": inst.tid, "args": inst.args,
        }, sort_keys=True))
    for sample in tracer.counters:
        lines.append(json.dumps({
            "kind": "counter", "name": sample.name, "ts_ns": sample.ts_ns,
            "value": sample.value, "pid": sample.pid,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Chrome trace_event
# ---------------------------------------------------------------------------

_PROCESS_NAMES = {
    PID_WALL: "tangled (wall clock)",
    PID_PIPELINE: "pipeline (1 cycle = 1 us)",
    PID_PROFILE: "profile flamegraph (1 cycle = 1 us)",
    PID_WORKERS: "--jobs workers (wall clock)",
}

#: Default labels for threads whose emitter did not name them.
_THREAD_NAMES = {
    (PID_PROFILE, 1): "attributed cycles",
}


def _tid_index(order: dict[tuple[int, str], int], pid: int, tid: str) -> int:
    """Stable small-int thread ids per (pid, tid label)."""
    key = (pid, tid)
    idx = order.get(key)
    if idx is None:
        idx = len([k for k in order if k[0] == pid]) + 1
        order[key] = idx
    return idx


def chrome_trace(metrics: MetricRegistry, tracer: Tracer) -> dict:
    """The trace as a Chrome ``trace_event`` JSON object.

    Timestamps are microseconds (``ts``/``dur``); wall-clock spans divide
    their ns values by 1000, synthetic pipeline spans carry cycle counts
    already scaled by the emitter.  Counter samples become ``C`` events
    (graph tracks); the final metric snapshot rides along in
    ``otherData``.
    """
    events: list[dict] = []
    order: dict[tuple[int, str], int] = {}

    def tid_for(pid: int, label: str) -> int:
        tid = _tid_index(order, pid, label)
        return tid

    for span in tracer.spans:
        events.append({
            "name": span.name,
            "cat": span.cat or "span",
            "ph": "X",
            "ts": span.ts_ns / 1000,
            "dur": max(span.dur_ns / 1000, 0.001),
            "pid": span.pid,
            "tid": tid_for(span.pid, span.tid),
            "args": span.args,
        })
    for inst in tracer.instants:
        events.append({
            "name": inst.name,
            "cat": "instant",
            "ph": "i",
            "s": "t",
            "ts": inst.ts_ns / 1000,
            "pid": inst.pid,
            "tid": tid_for(inst.pid, inst.tid),
            "args": inst.args,
        })
    for sample in tracer.counters:
        events.append({
            "name": sample.name,
            "cat": "counter",
            "ph": "C",
            "ts": sample.ts_ns / 1000,
            "pid": sample.pid,
            "tid": 0,
            "args": {"value": sample.value},
        })

    # Name the processes and threads so Perfetto's tracks read well.
    pids = {e["pid"] for e in events}
    for pid in sorted(pids):
        events.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": _PROCESS_NAMES.get(pid, f"process {pid}")},
        })
    for (pid, label), tid in sorted(order.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": label},
        })

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "metrics": metrics.snapshot(),
            # Truncation is surfaced in the artifact itself, not just the
            # text report: a capped tracer yields a *partial* trace and
            # downstream tooling must be able to tell.
            "truncated": tracer.truncated,
            "events_dropped": tracer.dropped,
        },
    }


def _metadata_events(events: list[dict]) -> list[dict]:
    """``process_name``/``thread_name`` M events for anything unnamed.

    Trace emitters name what they know about; this fills the gaps so
    no pid/tid ever renders as a bare number in the trace viewer --
    the profiler's PID 3 flamegraph and the ``--jobs`` worker
    heartbeat tracks (PID 4) get labels even when the emitter skipped
    its own metadata.
    """
    named_processes = set()
    named_threads = set()
    pids = set()
    tids = set()
    for event in events:
        pid = event.get("pid")
        if pid is None:
            continue
        if event.get("ph") == "M":
            if event.get("name") == "process_name":
                named_processes.add(pid)
            elif event.get("name") == "thread_name":
                named_threads.add((pid, event.get("tid")))
            continue
        pids.add(pid)
        tid = event.get("tid")
        if tid:
            tids.add((pid, tid))
    extra: list[dict] = []
    for pid in sorted(pids - named_processes):
        extra.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": _PROCESS_NAMES.get(pid, f"process {pid}")},
        })
    for pid, tid in sorted(tids - named_threads, key=lambda k: (k[0], str(k[1]))):
        extra.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {
                "name": _THREAD_NAMES.get(
                    (pid, tid),
                    f"worker {tid}" if pid == PID_WORKERS else f"thread {tid}",
                ),
            },
        })
    return extra


def write_trace(path: str, trace: dict) -> None:
    """The one Chrome ``trace_event`` file writer.

    Every trace artifact -- ``--trace-out`` telemetry traces and the
    profiler's flamegraph export alike -- goes through here, so the
    on-disk format (single JSON object, UTF-8) cannot fork.  Missing
    ``process_name``/``thread_name`` metadata is filled in on the way
    out (see :func:`_metadata_events`).
    """
    events = trace.get("traceEvents", [])
    extra = _metadata_events(events)
    if extra:
        trace = dict(trace)
        trace["traceEvents"] = list(events) + extra
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)


def write_chrome_trace(path: str, metrics: MetricRegistry,
                       tracer: Tracer) -> None:
    """Serialize :func:`chrome_trace` to ``path``."""
    write_trace(path, chrome_trace(metrics, tracer))
