"""The bench runner: byte stability, comparison semantics, the CLI gate.

Also home to the satellite audits this PR shipped with the bench work:
histogram edge cases (empty / single-sample / reservoir overflow) and
the truncation flag surfacing in Chrome-trace metadata.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.obs import Histogram, MetricRegistry, Telemetry, Tracer
from repro.obs import bench
from repro.obs.sinks import chrome_trace, render_report


def _tiny_suite():
    """Two fast, deterministic specs for runner-level tests."""
    return [bench.spec_by_name("fig10.pipelined"),
            bench.spec_by_name("chunkstore.s12")]


class TestRunner:
    def test_report_shape(self):
        report = bench.run_suite(_tiny_suite(), label="t", rounds=2, warmup=0)
        assert report["schema"] == bench.SCHEMA
        assert report["label"] == "t"
        assert set(report["benches"]) == {"fig10.pipelined", "chunkstore.s12"}
        entry = report["benches"]["fig10.pipelined"]
        assert entry["counters"]["pipeline.cycles"] == 167
        assert entry["counters"]["cpu.instructions"] == 92
        assert entry["timing"]["rounds"] == 2
        assert entry["timing"]["min"] <= entry["timing"]["median"]

    def test_byte_stable_modulo_timing(self):
        a = bench.run_suite(_tiny_suite(), label="t", rounds=2, warmup=0)
        b = bench.run_suite(_tiny_suite(), label="t", rounds=2, warmup=0)
        for report in (a, b):
            for entry in report["benches"].values():
                entry["timing"] = {}
        assert bench.render_json(a) == bench.render_json(b)

    def test_chunkstore_counters_present(self):
        report = bench.run_suite([bench.spec_by_name("chunkstore.s12")],
                                 rounds=1, warmup=0)
        counters = report["benches"]["chunkstore.s12"]["counters"]
        assert counters.get("chunkstore.binop.hit", 0) > 0

    def test_rejects_bad_round_counts(self):
        with pytest.raises(ReproError):
            bench.run_suite(_tiny_suite(), rounds=0)
        with pytest.raises(ReproError):
            bench.run_suite(_tiny_suite(), warmup=-1)

    def test_unknown_spec_name(self):
        with pytest.raises(ReproError, match="unknown bench"):
            bench.spec_by_name("no.such.bench")

    def test_report_file_roundtrip(self, tmp_path):
        report = bench.run_suite(_tiny_suite(), rounds=1, warmup=0)
        path = tmp_path / "BENCH_t.json"
        bench.write_report(str(path), report)
        assert bench.load_report(str(path)) == report

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "benches": {}}))
        with pytest.raises(ReproError, match="schema"):
            bench.load_report(str(path))


def _report_with(counters, median=1.0, name="w"):
    return {
        "schema": bench.SCHEMA, "label": "x", "rounds": 2, "warmup": 0,
        "benches": {name: {"counters": counters,
                           "timing": {"median": median, "iqr": 0.0,
                                      "min": median, "max": median,
                                      "mean": median, "rounds": 2}}},
    }


class TestCompare:
    def test_synthetic_2x_slowdown_is_regression(self):
        base = _report_with({"pipeline.cycles": 100, "pipeline.cpi": 1.0})
        cur = _report_with({"pipeline.cycles": 200, "pipeline.cpi": 2.0})
        rows = bench.compare_reports(cur, base, counter_threshold=0.25)
        verdicts = {r["metric"]: r["verdict"] for r in rows
                    if r["kind"] == "counter"}
        assert verdicts == {"pipeline.cycles": bench.REGRESSED,
                           "pipeline.cpi": bench.REGRESSED}
        assert bench.regressions(rows)

    def test_improvement_and_neutral(self):
        base = _report_with({"pipeline.cycles": 100, "qat.ops": 50})
        cur = _report_with({"pipeline.cycles": 80, "qat.ops": 51})
        verdicts = {r["metric"]: r["verdict"]
                    for r in bench.compare_reports(cur, base)
                    if r["kind"] == "counter"}
        assert verdicts["pipeline.cycles"] == bench.IMPROVED
        assert verdicts["qat.ops"] == bench.NEUTRAL

    def test_higher_is_better_metrics_invert(self):
        base = _report_with({"chunkstore.binop.hit": 100})
        cur = _report_with({"chunkstore.binop.hit": 50})
        (row,) = [r for r in bench.compare_reports(cur, base)
                  if r["kind"] == "counter"]
        assert row["verdict"] == bench.REGRESSED

    def test_timing_not_gated_by_default(self):
        base = _report_with({"pipeline.cycles": 100}, median=1.0)
        cur = _report_with({"pipeline.cycles": 100}, median=10.0)
        rows = bench.compare_reports(cur, base)
        (timing,) = [r for r in rows if r["kind"] == "timing"]
        assert timing["verdict"] == bench.REGRESSED
        assert not bench.regressions(rows)
        assert bench.regressions(rows, include_timing=True) == [timing]

    def test_missing_bench_is_a_regression(self):
        base = _report_with({"pipeline.cycles": 100})
        cur = {"schema": bench.SCHEMA, "label": "x", "rounds": 2,
               "warmup": 0, "benches": {}}
        rows = bench.compare_reports(cur, base)
        assert rows[0]["kind"] == "missing"
        assert bench.regressions(rows)

    def test_zero_baseline_counter(self):
        base = _report_with({"pipeline.stall.data": 0})
        cur = _report_with({"pipeline.stall.data": 7})
        (row,) = [r for r in bench.compare_reports(cur, base)
                  if r["kind"] == "counter"]
        assert row["verdict"] == bench.REGRESSED

    def test_render_compare_mentions_counts(self):
        base = _report_with({"pipeline.cycles": 100})
        cur = _report_with({"pipeline.cycles": 300})
        text = bench.render_compare(bench.compare_reports(cur, base))
        assert "regressed" in text
        assert "pipeline.cycles" in text


class TestCli:
    def test_bench_quick_writes_report_and_self_compares(self, tmp_path,
                                                         capsys):
        out = tmp_path / "BENCH_ci.json"
        assert main(["bench", "--quick", "--label", "ci",
                     "--only", "fig10.pipelined",
                     "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["benches"]["fig10.pipelined"]["counters"][
            "pipeline.cycles"] == 167
        # Self-comparison from the file: everything neutral, exit 0.
        assert main(["bench", "--input", str(out),
                     "--compare", str(out)]) == 0
        assert "all metrics neutral" in capsys.readouterr().out

    def test_bench_gate_fails_on_synthetic_slowdown(self, tmp_path, capsys):
        current = tmp_path / "cur.json"
        baseline = tmp_path / "base.json"
        cur = _report_with({"pipeline.cpi": 2.0})
        base = _report_with({"pipeline.cpi": 1.0})
        current.write_text(bench.render_json(cur))
        baseline.write_text(bench.render_json(base))
        # Regression gate exits 2 (distinct from the generic error 1).
        assert main(["bench", "--input", str(current),
                     "--compare", str(baseline),
                     "--counter-threshold", "0.25"]) == 2
        captured = capsys.readouterr()
        assert "pipeline.cpi" in captured.out
        # Each regressed counter is itemized on stderr with old/new
        # values and the percent delta.
        assert "pipeline.cpi 1 -> 2 (+100.0%)" in captured.err

    def test_bench_io_error_exits_one_not_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["bench", "--input", str(missing),
                     "--compare", str(missing)]) == 1

    def test_render_regressions_itemizes_rows(self):
        base = _report_with({"pipeline.cpi": 1.0, "qat.ops": 50})
        cur = _report_with({"pipeline.cpi": 2.0, "qat.ops": 50})
        rows = bench.regressions(bench.compare_reports(cur, base))
        text = bench.render_regressions(rows)
        assert "pipeline.cpi 1 -> 2 (+100.0%)" in text
        assert "qat.ops" not in text

    def test_render_regressions_missing_bench(self):
        base = _report_with({"pipeline.cycles": 100})
        cur = {"schema": bench.SCHEMA, "label": "x", "rounds": 2,
               "warmup": 0, "benches": {}}
        rows = bench.regressions(bench.compare_reports(cur, base))
        text = bench.render_regressions(rows)
        assert "missing from current run" in text

    def test_bench_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig10.pipelined" in out

    def test_bench_list_has_no_warm_specs(self, capsys):
        assert main(["bench", "--list"]) == 0
        names = [line.split()[0] for line in
                 capsys.readouterr().out.splitlines()]
        assert names
        assert not [name for name in names if name.endswith("_warm")]

    def test_chunk_cache_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig10", "--chunk-cache", "x"])
        assert exc.value.code == 2
        assert "--chunk-cache" in capsys.readouterr().err

    def test_profile_fig10_listing(self, capsys):
        assert main(["profile", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "total cycles 167" in out
        assert "opcode histogram:" in out

    def test_profile_json_sums(self, capsys):
        assert main(["profile", "fig10", "--json", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        per_pc = sum(sum(e["cycles"].values()) for e in data["pcs"].values())
        assert per_pc == data["total_cycles"] == 167

    def test_profile_multicycle_and_flamegraph(self, tmp_path, capsys):
        trace = tmp_path / "flame.json"
        assert main(["profile", "fig10", "--sim", "multicycle",
                     "--trace-out", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        assert payload["otherData"]["truncated"] is False
        total = payload["otherData"]["profile"]["total_cycles"]
        spans = [e for e in payload["traceEvents"] if e.get("cat") == "pc"]
        assert sum(e["dur"] for e in spans) == total

    def test_profile_example_file(self, capsys):
        assert main(["profile", "examples/fig10.s"]) == 0
        assert "aob bits" in capsys.readouterr().out


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
