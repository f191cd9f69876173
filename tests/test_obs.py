"""Unit tests for the observability subsystem (``repro.obs``).

Covers the instrument math (counters, gauges, histogram percentiles and
merging), span nesting and timing monotonicity, the disabled-mode no-op
path, and the Chrome ``trace_event`` / JSON-lines sink formats.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    NULL_SPAN,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Telemetry,
    Tracer,
)
from repro.obs import runtime
from repro.obs.sinks import chrome_trace, render_report
from repro.obs.spans import PID_PIPELINE, PID_WALL


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_add_is_an_alias_for_inc(self):
        c = Counter("x")
        c.add(10)
        assert c.value == 10
        assert Counter.add is Counter.inc


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("cpi")
        g.set(1.5)
        g.inc(0.5)
        g.dec(1.0)
        assert g.value == pytest.approx(1.0)


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("t")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        assert h.count == 3
        assert h.total == pytest.approx(6.0)
        assert h.min == 1.0
        assert h.max == 3.0
        assert h.mean == pytest.approx(2.0)

    def test_percentiles_linear_interpolation(self):
        h = Histogram("t")
        for v in range(1, 101):  # 1..100
            h.observe(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        # rank = 0.5 * 99 = 49.5 -> midway between 50 and 51
        assert h.percentile(50) == pytest.approx(50.5)
        assert h.percentile(90) == pytest.approx(90.1)

    def test_percentile_bounds_checked(self):
        h = Histogram("t")
        h.observe(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)
        with pytest.raises(ValueError):
            h.percentile(-1)

    def test_empty_summary_is_all_zero(self):
        s = Histogram("t").summary()
        assert s["count"] == 0
        assert all(s[k] == 0.0 for k in ("mean", "min", "p50", "p90", "p99", "max"))

    def test_sampling_keeps_exact_aggregates_bounded_memory(self):
        h = Histogram("t", max_samples=8)
        for v in range(1, 1001):
            h.observe(float(v))
        # count/total/min/max never degrade ...
        assert h.count == 1000
        assert h.total == pytest.approx(sum(range(1, 1001)))
        assert h.min == 1.0 and h.max == 1000.0
        # ... while the retained sample set stays bounded.
        assert len(h._samples) <= 8
        assert h._stride > 1
        # percentiles remain sane estimates over the retained samples
        assert 1.0 <= h.percentile(50) <= 1000.0

    def test_merge_folds_counts_and_extremes(self):
        a = Histogram("t")
        b = Histogram("t")
        for v in (1.0, 2.0):
            a.observe(v)
        for v in (10.0, 20.0):
            b.observe(v)
        a.merge(b)
        assert a.count == 4
        assert a.total == pytest.approx(33.0)
        assert a.min == 1.0 and a.max == 20.0
        assert a.percentile(100) == 20.0


class TestMetricRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert len(reg) == 2
        assert "a" in reg and "missing" not in reg

    def test_type_collision_raises(self):
        reg = MetricRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")
        with pytest.raises(TypeError):
            reg.histogram("a")

    def test_value_and_snapshot(self):
        reg = MetricRegistry()
        reg.counter("c").add(3)
        reg.gauge("g").set(1.25)
        reg.histogram("h").observe(2.0)
        assert reg.value("c") == 3
        assert reg.value("absent", default=-1) == -1
        assert reg.value("h", default=-1) == -1  # histograms are not scalar
        snap = reg.snapshot()
        assert snap["c"] == 3
        assert snap["g"] == 1.25
        assert snap["h"]["count"] == 1
        json.dumps(snap)  # must be plain data


class TestTracer:
    def test_span_nesting_records_depth(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        # inner closes first
        inner, outer = t.spans
        assert inner.name == "inner" and inner.depth == 1
        assert outer.name == "outer" and outer.depth == 0

    def test_span_timing_is_monotone(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner"):
                pass
        inner, outer = t.spans
        assert inner.dur_ns >= 0 and outer.dur_ns >= 0
        # the inner span starts after and ends before the outer one
        assert inner.ts_ns >= outer.ts_ns
        assert inner.ts_ns + inner.dur_ns <= outer.ts_ns + outer.dur_ns

    def test_end_without_begin_raises(self):
        with pytest.raises(RuntimeError):
            Tracer().end()

    def test_max_events_counts_drops(self):
        t = Tracer(max_events=2)
        t.complete("a", ts_ns=0, dur_ns=1)
        t.instant("b", ts_ns=1)
        t.sample("c", 1.0, ts_ns=2)  # over the cap
        assert len(t) == 2
        assert t.dropped == 1
        assert t.truncated


class TestDisabledMode:
    def test_disabled_span_is_the_shared_null_singleton(self):
        tel = Telemetry(enabled=False)
        assert tel.span("x") is NULL_SPAN
        assert tel.span("y", cat="c", k=1) is NULL_SPAN
        with tel.span("x"):
            pass
        assert len(tel.tracer) == 0
        assert len(tel.metrics) == 0

    def test_disabled_timer_records_nothing(self):
        tel = Telemetry(enabled=False)
        with tel.timer("t") as handle:
            pass
        assert handle.elapsed >= 0.0  # elapsed still measured for the caller
        assert len(tel.metrics) == 0
        assert len(tel.tracer) == 0

    def test_metrics_only_mode_skips_events(self):
        tel = Telemetry(enabled=True, tracing=False)
        assert tel.span("x") is NULL_SPAN
        with tel.timer("t"):
            pass
        assert tel.metrics.histogram("t").count == 1
        assert len(tel.tracer) == 0

    def test_runtime_guard_follows_install(self):
        assert not runtime.active
        assert obs.current() is None
        with obs.capture(tracing=False) as tel:
            assert runtime.active
            assert obs.current() is tel
        assert not runtime.active
        assert obs.current() is None

    def test_installing_disabled_telemetry_keeps_guard_off(self):
        obs.install(Telemetry(enabled=False))
        try:
            assert not runtime.active
        finally:
            obs.disable()


def _populated_telemetry() -> Telemetry:
    tel = Telemetry()
    with tel.span("run", cat="cpu", sim="pipelined"):
        with tel.timer("bench.step"):
            pass
    tel.tracer.complete("IF", ts_ns=1000, dur_ns=2000,
                        cat="stage", pid=PID_PIPELINE, tid="IF")
    tel.tracer.instant("halt", ts_ns=5000)
    tel.tracer.sample("pipeline.cpi", 1.25, ts_ns=4000, pid=PID_PIPELINE)
    tel.metrics.counter("pipeline.cycles").add(167)
    tel.metrics.gauge("pipeline.cpi").set(1.8152)
    return tel


class TestChromeTraceSink:
    def test_schema_and_round_trip(self):
        trace = _populated_telemetry().chrome_trace()
        # top-level object format
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert set(event) >= {"name", "ph", "pid", "tid"}
            assert event["ph"] in {"X", "i", "C", "M"}
            if event["ph"] != "M":
                assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert event["dur"] >= 0.001  # Perfetto hides 0-width slices
            if event["ph"] == "i":
                assert event["s"] == "t"
        # the whole object must survive a JSON round trip
        assert json.loads(json.dumps(trace)) == trace

    def test_processes_and_threads_are_named(self):
        events = _populated_telemetry().chrome_trace()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert "tangled (wall clock)" in process_names
        assert "pipeline (1 cycle = 1 us)" in process_names
        assert {"IF", "main", "bench"} <= thread_names

    def test_time_domains_separated_by_pid(self):
        events = _populated_telemetry().chrome_trace()["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {PID_WALL, PID_PIPELINE}

    def test_metric_snapshot_rides_along(self):
        trace = _populated_telemetry().chrome_trace()
        metrics = trace["otherData"]["metrics"]
        assert metrics["pipeline.cycles"] == 167
        assert metrics["pipeline.cpi"] == pytest.approx(1.8152)

    def test_write_chrome_trace_is_loadable(self, tmp_path):
        path = tmp_path / "trace.json"
        _populated_telemetry().write_chrome_trace(str(path))
        with open(path, encoding="utf-8") as handle:
            loaded = json.load(handle)
        assert loaded["traceEvents"]


class TestJsonlSink:
    def test_every_line_is_valid_json(self):
        text = _populated_telemetry().events_jsonl()
        lines = text.strip().splitlines()
        assert lines
        kinds = set()
        for line in lines:
            record = json.loads(line)
            kinds.add(record["kind"])
        assert kinds == {"metric", "span", "instant", "counter"}


class TestReportSink:
    def test_headline_always_present(self):
        report = Telemetry(enabled=True, tracing=False).report()
        assert "pipeline CPI" in report
        assert "n/a (no RE activity)" in report

    def test_hit_rate_rendered_as_percentage(self):
        tel = Telemetry(enabled=True, tracing=False)
        tel.metrics.counter("chunkstore.binop.hit").add(3)
        tel.metrics.counter("chunkstore.binop.miss").add(1)
        assert "75.00%" in tel.report()

    def test_sections_appear_when_populated(self):
        report = _populated_telemetry().report()
        assert "counters:" in report
        assert "gauges:" in report
        assert "histograms:" in report
        assert "trace:" in report


class TestPercentilesHelper:
    """Histogram.percentiles(): the one-call p50/p95/p99 summary."""

    def test_named_keys_and_values(self):
        h = Histogram("t")
        for v in range(1, 101):
            h.observe(float(v))
        pct = h.percentiles((50, 95, 99))
        assert set(pct) == {"p50", "p95", "p99"}
        assert pct["p50"] == pytest.approx(50.5)
        assert pct["p95"] == pytest.approx(95.05)
        assert pct["p99"] == pytest.approx(99.01)

    def test_empty_histogram_is_all_zero(self):
        assert Histogram("t").percentiles() == {
            "p50": 0.0, "p95": 0.0, "p99": 0.0}

    def test_single_sample_is_every_percentile(self):
        h = Histogram("t")
        h.observe(42.0)
        assert h.percentiles((50, 95, 99)) == {
            "p50": 42.0, "p95": 42.0, "p99": 42.0}

    def test_reservoir_truncated_estimates_stay_in_range(self):
        h = Histogram("t", max_samples=8)
        for v in range(1, 10_001):
            h.observe(float(v))
        assert h._stride > 1  # the reservoir actually truncated
        pct = h.percentiles((50, 95, 99))
        assert 1.0 <= pct["p50"] <= pct["p95"] <= pct["p99"] <= 10_000.0

    def test_fractional_percentile_key(self):
        h = Histogram("t")
        h.observe(1.0)
        assert set(h.percentiles((99.9,))) == {"p99.9"}

    def test_report_sink_shows_p50_p95_p99(self):
        tel = Telemetry(enabled=True, tracing=False)
        for v in range(1, 101):
            tel.histogram("fault.run_seconds").observe(float(v))
        report = tel.report()
        assert "p50=50.5" in report
        assert "p95=95.05" in report
        assert "p99=99.01" in report


class TestTraceMetadataInjection:
    """write_trace() fills in process_name/thread_name metadata."""

    def test_unnamed_pids_and_tids_get_labeled(self, tmp_path):
        from repro.obs.sinks import write_trace
        from repro.obs.spans import PID_PROFILE, PID_WORKERS

        trace = {"traceEvents": [
            {"name": "pc", "ph": "X", "ts": 0, "dur": 1,
             "pid": PID_PROFILE, "tid": 1},
            {"name": "hb", "ph": "i", "s": "t", "ts": 0,
             "pid": PID_WORKERS, "tid": 2},
        ]}
        path = tmp_path / "t.json"
        write_trace(str(path), trace)
        loaded = json.loads(path.read_text())
        meta = {(e["name"], e["pid"], e.get("tid")): e["args"]["name"]
                for e in loaded["traceEvents"] if e["ph"] == "M"}
        assert meta[("process_name", PID_PROFILE, 0)] == \
            "profile flamegraph (1 cycle = 1 us)"
        assert meta[("process_name", PID_WORKERS, 0)] == \
            "--jobs workers (wall clock)"
        assert meta[("thread_name", PID_PROFILE, 1)] == "attributed cycles"
        assert meta[("thread_name", PID_WORKERS, 2)] == "worker 2"

    def test_existing_metadata_not_duplicated(self, tmp_path):
        from repro.obs.sinks import write_trace

        trace = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": 0, "dur": 1, "pid": 9, "tid": 1},
            {"name": "process_name", "ph": "M", "pid": 9, "tid": 0,
             "args": {"name": "mine"}},
            {"name": "thread_name", "ph": "M", "pid": 9, "tid": 1,
             "args": {"name": "mine too"}},
        ]}
        path = tmp_path / "t.json"
        write_trace(str(path), trace)
        loaded = json.loads(path.read_text())
        meta = [e for e in loaded["traceEvents"] if e["ph"] == "M"]
        assert len(meta) == 2  # nothing added
        assert {e["args"]["name"] for e in meta} == {"mine", "mine too"}

    def test_caller_trace_dict_not_mutated(self, tmp_path):
        from repro.obs.sinks import write_trace

        events = [{"name": "x", "ph": "X", "ts": 0, "dur": 1,
                   "pid": 7, "tid": 1}]
        trace = {"traceEvents": events}
        write_trace(str(tmp_path / "t.json"), trace)
        assert trace["traceEvents"] is events
        assert len(events) == 1

    def test_jobs_campaign_trace_has_worker_tracks(self, tmp_path):
        from repro.cli import main
        from repro.obs.spans import PID_WORKERS

        trace = tmp_path / "campaign.json"
        assert main(["faults", "--runs", "4", "--jobs", "2",
                     "--summary-only", "--trace-out", str(trace)]) == 0
        loaded = json.loads(trace.read_text())
        names = [e["args"]["name"] for e in loaded["traceEvents"]
                 if e["ph"] == "M" and e["pid"] == PID_WORKERS]
        assert "--jobs workers (wall clock)" in names
        assert any(n.startswith("worker ") for n in names)


class TestHistogramEdgeCases:
    def test_empty_summary_is_all_zero(self):
        s = Histogram("t").summary()
        assert s == {"count": 0, "mean": 0.0, "min": 0.0, "p50": 0.0,
                     "p90": 0.0, "p99": 0.0, "max": 0.0}

    def test_single_sample_percentiles(self):
        h = Histogram("t")
        h.observe(4.2)
        for p in (0, 50, 90, 99, 100):
            assert h.percentile(p) == 4.2
        assert h.summary()["p50"] == 4.2

    def test_percentile_range_validated(self):
        h = Histogram("t")
        with pytest.raises(ValueError):
            h.percentile(-1)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_max_samples_validated(self):
        with pytest.raises(ValueError, match="max_samples"):
            Histogram("t", max_samples=0)

    def test_reservoir_after_overflow_keeps_exact_aggregates(self):
        h = Histogram("t", max_samples=16)
        n = 1000
        for i in range(n):
            h.observe(float(i))
        assert h.count == n
        assert h.total == sum(range(n))
        assert h.min == 0.0
        assert h.max == float(n - 1)
        assert len(h._samples) <= h.max_samples
        assert h._stride > 1
        # Sampled percentiles stay ordered and within the observed range.
        p50, p90 = h.percentile(50), h.percentile(90)
        assert 0.0 <= p50 <= p90 <= float(n - 1)

    def test_merge_after_overflow_respects_cap(self):
        a = Histogram("t", max_samples=8)
        b = Histogram("t", max_samples=8)
        for i in range(100):
            a.observe(float(i))
            b.observe(float(100 + i))
        a.merge(b)
        assert a.count == 200
        assert a.max == 199.0
        assert len(a._samples) <= a.max_samples


class TestReportDeterminism:
    def test_stats_report_metric_order_is_sorted(self):
        metrics = MetricRegistry()
        for name in ("z.last", "a.first", "m.middle"):
            metrics.counter(name).inc()
        text = render_report(metrics)
        idx = {name: text.index(name) for name in
               ("a.first", "m.middle", "z.last")}
        assert idx["a.first"] < idx["m.middle"] < idx["z.last"]

    def test_identical_runs_render_identical_reports(self):
        def run():
            t = Telemetry(enabled=True, tracing=False)
            t.metrics.counter("pipeline.cycles").add(167)
            t.metrics.gauge("pipeline.cpi").set(1.8152)
            return t.report()

        assert run() == run()


class TestTraceTruncationMetadata:
    def test_truncation_flag_surfaces_in_chrome_trace(self):
        metrics = MetricRegistry()
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.complete(f"s{i}", ts_ns=i, dur_ns=1)
        trace = chrome_trace(metrics, tracer)
        assert trace["otherData"]["truncated"] is True
        assert trace["otherData"]["events_dropped"] == tracer.dropped > 0

    def test_untruncated_trace_reports_clean(self):
        tracer = Tracer(max_events=100)
        tracer.complete("s", ts_ns=0, dur_ns=1)
        trace = chrome_trace(MetricRegistry(), tracer)
        assert trace["otherData"]["truncated"] is False
        assert trace["otherData"]["events_dropped"] == 0

    def test_telemetry_trace_file_carries_metadata(self, tmp_path):
        telemetry = Telemetry(enabled=True, tracing=True, max_events=2)
        with telemetry.span("a"):
            with telemetry.span("b"):
                pass
        with telemetry.span("c"):
            pass
        path = tmp_path / "trace.json"
        telemetry.write_chrome_trace(str(path))
        payload = json.loads(path.read_text())
        assert "truncated" in payload["otherData"]
        assert "events_dropped" in payload["otherData"]
