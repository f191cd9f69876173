"""Integration tests: telemetry wired through the real simulators.

Asserts that the metrics published by the instrumented layers agree with
the simulators' own statistics and with the S31 bench expectations
(straight-line CPI ~1, two-word Qat fetch penalty ~2), and that the CLI
``--stats``/``--trace-out`` flags produce the report and a loadable
Chrome trace.
"""

import json

import pytest

from repro import obs
from repro.asm import assemble
from repro.cli import main
from repro.cpu import FunctionalSimulator, PipelineConfig, PipelinedSimulator
from repro.obs.spans import PID_PIPELINE


def _run_pipelined(src, **cfg):
    sim = PipelinedSimulator(ways=8, config=PipelineConfig(**cfg))
    sim.load(assemble(src))
    sim.run()
    return sim


STRAIGHT_LINE = "\n".join(f"lex ${i % 8}, {i % 100}" for i in range(400)) \
    + "\nlex $rv, 0\nsys\n"
QAT_HEAVY = "\n".join("and @2, @0, @1" for _ in range(100)) \
    + "\nlex $rv, 0\nsys\n"


class TestPipelineMetrics:
    def test_published_metrics_match_sim_stats(self):
        with obs.capture() as tel:
            sim = _run_pipelined(STRAIGHT_LINE)
        m = tel.metrics
        assert m.value("pipeline.cycles") == sim.stats.cycles
        assert m.value("pipeline.retired") == sim.stats.retired
        assert m.value("cpu.instructions") == sim.stats.retired
        assert m.value("pipeline.stall.data") == sim.stats.stall_data
        assert m.value("pipeline.flush.branch") == sim.stats.branch_flushes
        assert m.value("pipeline.fetch.extra_cycles") == sim.stats.fetch_extra
        assert m.gauge("pipeline.cpi").value == pytest.approx(sim.stats.cpi)

    def test_straight_line_cpi_near_one(self):
        """The S31 headline claim, read back from the telemetry gauge."""
        with obs.capture(tracing=False) as tel:
            _run_pipelined(STRAIGHT_LINE)
        assert tel.metrics.gauge("pipeline.cpi").value < 1.02

    def test_qat_two_word_fetch_penalty(self):
        """Two-word Qat instructions halve fetch throughput (S31 bench)."""
        with obs.capture(tracing=False) as tel:
            _run_pipelined(QAT_HEAVY)
        assert 1.9 < tel.metrics.gauge("pipeline.cpi").value < 2.1
        assert tel.metrics.value("pipeline.fetch.extra_cycles") == 100

    def test_stage_spans_on_the_cycle_timebase(self):
        with obs.capture() as tel:
            _run_pipelined(STRAIGHT_LINE)
        stage_spans = [s for s in tel.tracer.spans if s.pid == PID_PIPELINE]
        assert {s.tid for s in stage_spans} == {"IF", "ID", "EX", "WB"}
        # one span per stage per retired instruction (the final sys/halt
        # pair drains without emitting)
        per_stage = sum(1 for s in stage_spans if s.tid == "EX")
        assert 400 <= per_stage <= 402
        # cycle domain: timestamps are whole trace-microseconds
        assert all(s.ts_ns % 1000 == 0 for s in stage_spans)

    def test_cpi_counter_track_sampled(self):
        with obs.capture() as tel:
            _run_pipelined(STRAIGHT_LINE)
        samples = [c for c in tel.tracer.counters if c.name == "pipeline.cpi"]
        assert samples  # >= one sample per 64 cycles
        assert all(c.pid == PID_PIPELINE for c in samples)
        assert all(0.5 < c.value < 3.0 for c in samples)

    def test_five_stage_labels(self):
        with obs.capture() as tel:
            _run_pipelined(STRAIGHT_LINE, stages=5)
        tids = {s.tid for s in tel.tracer.spans if s.pid == PID_PIPELINE}
        assert tids == {"IF", "ID", "EX", "MEM", "WB"}

    def test_disabled_runs_record_nothing(self):
        sim = _run_pipelined(STRAIGHT_LINE)
        assert sim.stats.cpi < 1.02  # still runs fine with obs off


class TestFunctionalAndQatMetrics:
    SRC = "had @0, 3\nand @2, @0, @1\nmeas $1, @2\nlex $rv, 0\nsys\n"

    def test_retired_and_syscall_counters(self):
        with obs.capture() as tel:
            sim = FunctionalSimulator(ways=8)
            sim.load(assemble(self.SRC))
            sim.run()
        assert tel.metrics.value("cpu.instructions") == sim.machine.instret
        assert tel.metrics.value("cpu.syscalls") == 1

    def test_qat_op_and_bit_volume_counters(self):
        with obs.capture() as tel:
            sim = FunctionalSimulator(ways=8)
            sim.load(assemble(self.SRC))
            sim.run()
        m = tel.metrics
        assert m.value("qat.ops") == 3  # qhad, qand, qmeas
        assert m.value("qat.ops.qand") == 1
        # 8-way AoB = 256 bits = 4 words per register operation
        assert m.value("qat.bits.and") == 256
        assert m.value("qat.bits.had") == 256
        assert m.value("qat.aob_bits") >= 512
        assert m.histogram("qat.op_seconds").count == 3

    def test_qat_spans_traced(self):
        with obs.capture() as tel:
            sim = FunctionalSimulator(ways=8)
            sim.load(assemble(self.SRC))
            sim.run()
        names = [s.name for s in tel.tracer.spans if s.tid == "qat"]
        assert names == ["qat.qhad", "qat.qand", "qat.qmeas"]


class TestChunkstoreMetrics:
    def test_pattern_backend_memoization_counters(self):
        from repro.apps import factor_word_level

        with obs.capture(tracing=False) as tel:
            result = factor_word_level(15, 4, 4, backend="pattern",
                                       chunk_ways=6)
        assert result.nontrivial == [3, 5]
        m = tel.metrics
        hits = m.value("chunkstore.binop.hit")
        misses = m.value("chunkstore.binop.miss")
        assert hits > 0 and misses > 0
        assert m.gauge("chunkstore.symbols").value > 0
        # every gate result, reused or new, is one dense chunk op
        assert m.value("qat.bits.and") > 0
        assert "chunkstore.bytes_saved" not in m.names()
        assert "chunkstore.memo.evicted" not in m.names()
        assert "%" in tel.report()  # reuse rate rendered in the headline


class TestOptimizerMetrics:
    def test_pass_timings_and_elimination_counters(self):
        from repro.pbp import TraceContext

        with obs.capture() as tel:
            ctx = TraceContext(ways=8)
            b = ctx.pint_h(4, 0x0F)
            c = ctx.pint_h(4, 0xF0)
            e = (b * c).eq(ctx.pint_mk(8, 15))
            ctx.compile({"e": e})
        m = tel.metrics
        assert m.histogram("gates.optimize.pass_seconds").count > 0
        assert m.value("gates.eliminated") > 0
        pass_spans = {s.name for s in tel.tracer.spans
                      if s.name.startswith("gates.optimize.")}
        assert pass_spans <= {"gates.optimize.fold", "gates.optimize.cse",
                              "gates.optimize.dce"}
        assert pass_spans


class TestCli:
    @pytest.fixture
    def asm_file(self, tmp_path):
        path = tmp_path / "prog.s"
        path.write_text(
            "had @0, 3\nand @2, @0, @1\nmeas $0, @2\nlex $rv, 0\nsys\n"
        )
        return path

    def test_run_stats_prints_report_last(self, asm_file, capsys):
        assert main(["run", str(asm_file), "--stats"]) == 0
        out = capsys.readouterr().out
        assert "== telemetry report ==" in out
        assert "pipeline CPI" in out
        assert "Qat coprocessor ops" in out
        # the report follows the normal run output
        assert out.index("registers:") < out.index("== telemetry report ==")

    def test_run_trace_out_writes_loadable_json(self, asm_file, tmp_path,
                                                capsys):
        trace_path = tmp_path / "trace.json"
        assert main(["run", str(asm_file), "--trace-out",
                     str(trace_path)]) == 0
        assert f"chrome trace -> {trace_path}" in capsys.readouterr().out
        with open(trace_path, encoding="utf-8") as handle:
            trace = json.load(handle)
        events = trace["traceEvents"]
        assert any(e["ph"] == "X" for e in events)
        assert any(e["ph"] == "M" for e in events)

    def test_run_without_flags_leaves_obs_uninstalled(self, asm_file, capsys):
        assert main(["run", str(asm_file)]) == 0
        assert "telemetry" not in capsys.readouterr().out
        assert obs.current() is None

    def test_fig10_stats(self, capsys):
        assert main(["fig10", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "Figure 10" in out
        assert "== telemetry report ==" in out
        # the deterministic fig10 CPI on the default pipelined simulator
        assert "pipeline CPI            : 1.8152" in out
