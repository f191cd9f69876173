"""The architectural profiler: attribution invariants, blame, rendering.

The load-bearing property is *conservation*: a profiled run attributes
exactly one (pc, reason) per simulated cycle, so the per-PC totals sum
to the simulator's own cycle count -- checked here over every example
workload, both Qat widths, all four pipeline configurations, and the
multi-cycle model.
"""

import json

import pytest

from repro import obs
from repro.apps import fig10_program, profile_factor_program
from repro.asm import assemble
from repro.cli import main
from repro.cpu import CycleCosts, PipelineConfig
from repro.obs.profile import (
    REASONS,
    Profiler,
    flamegraph_trace,
    profile_program,
    render_annotate,
    write_flamegraph,
)
from repro.obs.spans import PID_PROFILE

from tests.conformance import PATCH


def _program(body: str):
    return assemble(body + "\nlex $rv, 0\nsys\n")


#: Example workloads covering every attribution reason.
WORKLOADS = {
    "straight-line alu": "\n".join(f"lex ${i % 8}, {i % 100}" for i in range(40)),
    "dependent alu": "lex $0, 1\n" + "add $0, $0\n" * 40,
    "qat 2-word heavy": "had @0, 1\nhad @1, 2\n" + "and @2, @0, @1\n" * 20,
    "branchy loop": "lex $0, 10\nloop: lex $2, -1\nadd $0, $2\nbrt $0, loop",
    "load-use": "loadi $1, 0x100\nlex $0, 7\nstore $0, $1\nload $2, $1\nadd $2, $0",
    "qat swap structural": "had @0, 1\nhad @1, 2\nswap @0, @1\ncswap @2, @0, @1",
}

PIPE_CONFIGS = [
    PipelineConfig(stages=4, forwarding=True),
    PipelineConfig(stages=4, forwarding=False),
    PipelineConfig(stages=5, forwarding=True),
    PipelineConfig(stages=5, forwarding=False),
    PipelineConfig(stages=4, forwarding=True, second_qat_write_port=False),
]


class TestAttributionConservation:
    @pytest.mark.parametrize("ways", [8, 16])
    @pytest.mark.parametrize("body", list(WORKLOADS.values()),
                             ids=list(WORKLOADS))
    @pytest.mark.parametrize("config", PIPE_CONFIGS,
                             ids=["4fwd", "4nofwd", "5fwd", "5nofwd", "4fwd-1wp"])
    def test_pipelined_sum_equals_cycles(self, body, ways, config):
        sim, prof = profile_program(_program(body), ways=ways,
                                    simulator="pipelined", config=config)
        assert prof.total_cycles == sim.stats.cycles
        assert sum(prof.issues_by_pc.values()) == sim.stats.retired

    @pytest.mark.parametrize("ways", [8, 16])
    @pytest.mark.parametrize("body", list(WORKLOADS.values()),
                             ids=list(WORKLOADS))
    def test_multicycle_sum_equals_cycles(self, body, ways):
        sim, prof = profile_program(_program(body), ways=ways,
                                    simulator="multicycle")
        assert prof.total_cycles == sim.cycles

    @pytest.mark.parametrize("ways", [8, 16])
    @pytest.mark.parametrize("simulator", ["pipelined", "multicycle"])
    def test_fig10_sum_equals_cycles(self, ways, simulator):
        sim, prof = profile_factor_program(ways=ways, simulator=simulator)
        expected = sim.stats.cycles if simulator == "pipelined" else sim.cycles
        assert prof.total_cycles == expected
        assert (sim.machine.read_reg(0), sim.machine.read_reg(1)) == (5, 3)

    def test_reasons_are_canonical(self):
        _, prof = profile_factor_program()
        for per_pc in prof.cycles_by_pc.values():
            assert set(per_pc) <= set(REASONS)


class TestBlameAndReasons:
    def test_raw_interlock_blames_producer(self):
        program = _program("lex $0, 1\n" + "add $0, $0\n" * 8)
        _, prof = profile_program(
            program, simulator="pipelined",
            config=PipelineConfig(stages=4, forwarding=False),
        )
        assert prof.reason_totals().get("raw", 0) > 0
        # Every blame edge points at an older (smaller-PC) producer here.
        assert prof.blame
        for (consumer, producer), cycles in prof.blame.items():
            assert producer < consumer
            assert cycles > 0

    def test_branch_flush_charged_to_branch(self):
        program = _program("lex $0, 3\nloop: lex $2, -1\nadd $0, $2\nbrt $0, loop")
        _, prof = profile_program(program, simulator="pipelined")
        assert prof.reason_totals().get("flush", 0) > 0

    def test_structural_stall_on_single_qat_write_port(self):
        program = _program("had @0, 1\nhad @1, 2\nswap @0, @1")
        sim, prof = profile_program(
            program, simulator="pipelined",
            config=PipelineConfig(stages=4, forwarding=True,
                                  second_qat_write_port=False),
        )
        assert prof.reason_totals().get("structural", 0) > 0
        assert prof.total_cycles == sim.stats.cycles

    def test_multicycle_memory_reason(self):
        program = _program("loadi $1, 0x100\nlex $0, 7\nstore $0, $1\nload $2, $1")
        _, prof = profile_program(program, simulator="multicycle")
        assert prof.reason_totals().get("memory", 0) > 0

    @pytest.mark.parametrize("simulator", ["pipelined", "multicycle"])
    def test_self_overwriting_store_labelled_as_store(self, simulator):
        # The store at pc 3 rewrites its own word to ``lex $3, 42``;
        # the label names what executed there, not what is left.
        program = _program(f"lex $0, {PATCH & 0xFF}\nlhi $0, {PATCH >> 8}\n"
                           "lex $1, 3\nstore $0, $1")
        sim, prof = profile_program(program, simulator=simulator)
        assert sim.machine.read_mem(3) == PATCH
        assert prof.label_by_pc[3] == "store\t$0, $1"

    def test_qat_bits_attributed_per_pc(self):
        _, prof = profile_factor_program(ways=8)
        assert sum(prof.qat_bits_by_pc.values()) > 0
        # had @0, 3 at pc 0 touches one 8-way AoB: 256 bits.
        assert prof.qat_bits_by_pc[0] == 256

    def test_multicycle_breakdown_sums_to_cycles_for(self):
        costs = CycleCosts()
        from repro.isa.instructions import INSTRUCTIONS

        for mnemonic in INSTRUCTIONS:
            parts = costs.breakdown(mnemonic)
            assert sum(c for _, c in parts) == costs.cycles_for(mnemonic)
            assert all(reason in REASONS for reason, _ in parts)


class TestRendering:
    def test_annotate_listing_shape(self):
        program = fig10_program()
        sim, prof = profile_program(program)
        text = render_annotate(prof, words=program.words, title="fig10")
        assert "total cycles 167" in text.splitlines()[1]
        assert "aob bits" in text
        assert "opcode histogram:" in text
        # No unresolved opcodes: every attributed PC got a label.
        assert "\n  ?" not in text

    def test_json_roundtrip(self):
        _, prof = profile_factor_program()
        data = json.loads(prof.to_json())
        assert data["total_cycles"] == prof.total_cycles
        per_pc = sum(sum(entry["cycles"].values())
                     for entry in data["pcs"].values())
        assert per_pc == data["total_cycles"]

    def test_flamegraph_spans_sum_to_total(self, tmp_path):
        _, prof = profile_factor_program()
        trace = flamegraph_trace(prof)
        reason_spans = [e for e in trace["traceEvents"] if e.get("cat") == "reason"]
        pc_spans = [e for e in trace["traceEvents"] if e.get("cat") == "pc"]
        assert sum(e["dur"] for e in reason_spans) == prof.total_cycles
        assert sum(e["dur"] for e in pc_spans) == prof.total_cycles
        assert all(e["pid"] == PID_PROFILE for e in reason_spans + pc_spans)
        assert trace["otherData"]["truncated"] is False
        path = tmp_path / "flame.json"
        write_flamegraph(str(path), prof)
        assert json.loads(path.read_text())["otherData"]["profile"][
            "total_cycles"] == prof.total_cycles


class TestProfilerIsolation:
    def test_profile_program_restores_previous_telemetry(self):
        previous = obs.enable(tracing=False)
        try:
            profile_factor_program()
            assert obs.current() is previous
        finally:
            obs.disable()

    def test_standalone_profiler_attribution(self):
        prof = Profiler()
        prof.attribute(0, "issue")
        prof.attribute(1, "raw", blame_pc=0)
        prof.attribute(1, "raw", blame_pc=0)
        assert prof.total_cycles == 3
        assert prof.blame[(1, 0)] == 2
        assert prof.blame_for(1) == [(0, 2)]


class TestCli:
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
