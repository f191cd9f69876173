"""Seeded fault injection: plans, campaigns, stuck-at."""

import numpy as np
import pytest

from repro.cpu import FunctionalSimulator, PipelinedSimulator
from repro.errors import ReproError, SimulatorError
from repro.faults import (
    FaultEvent,
    FaultPlan,
    apply_event,
    run_campaign,
    stuck_at_plan,
)
from repro.faults.campaign import render_report
from repro.hw.netlist import Netlist


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        a = FaultPlan.from_seed(11, 8, max_step=100)
        b = FaultPlan.from_seed(11, 8, max_step=100)
        assert a == b

    def test_different_seed_different_plan(self):
        a = FaultPlan.from_seed(11, 8, max_step=100)
        b = FaultPlan.from_seed(12, 8, max_step=100)
        assert a != b

    def test_round_trips_through_dict(self):
        plan = FaultPlan.from_seed(5, 4, max_step=50, targets=("gpr", "pc"))
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_rejects_unknown_target(self):
        with pytest.raises(ReproError):
            FaultPlan.from_seed(1, 1, max_step=10, targets=("cache",))

    def test_events_stay_in_bounds(self):
        plan = FaultPlan.from_seed(3, 64, max_step=30, ways=6, mem_span=128)
        for e in plan.events:
            assert 0 <= e.step < 30
            if e.target == "gpr":
                assert 0 <= e.index < 16 and 0 <= e.bit < 16
            elif e.target == "mem":
                assert 0 <= e.index < 128
            elif e.target == "qreg":
                assert 0 <= e.index < 256
                assert e.word == 0  # 2^6 bits fit one uint64 word


class TestApplyEvent:
    def test_gpr_flip(self):
        sim = FunctionalSimulator(ways=6)
        sim.machine.write_reg(3, 0b1000)
        apply_event(sim.machine, FaultEvent(0, "gpr", 3, 0, 1))
        assert sim.machine.read_reg(3) == 0b1010

    def test_mem_flip(self):
        sim = FunctionalSimulator(ways=6)
        apply_event(sim.machine, FaultEvent(0, "mem", 40, 0, 15))
        assert int(sim.machine.mem[40]) == 0x8000

    def test_qreg_flip(self):
        sim = FunctionalSimulator(ways=6)
        apply_event(sim.machine, FaultEvent(0, "qreg", 7, 0, 5))
        assert sim.machine.read_qreg(7).to_int() == 1 << 5

    def test_pc_flip(self):
        sim = FunctionalSimulator(ways=6)
        sim.machine.pc = 0
        apply_event(sim.machine, FaultEvent(0, "pc", 0, 0, 4))
        assert sim.machine.pc == 16

    def test_pc_flip_redirects_pipeline_fetch(self):
        sim = PipelinedSimulator(ways=6)
        sim.load([0] * 4)
        apply_event(sim.machine, FaultEvent(0, "pc", 0, 0, 4), pipeline=sim)
        assert sim.machine.pc == 16
        assert sim._fetch_pc == 16

    @pytest.mark.parametrize("target,index,bit", [
        ("gpr", -1, 0),        # would wrap to r15
        ("gpr", 16, 0),
        ("gpr", 3, 16),
        ("gpr", 3, -1),
        ("mem", 70000, 0),
        ("mem", -1, 0),
        ("mem", 40, 16),
        ("pc", 0, 17),         # would set pc to 0x20000
        ("pc", 0, -1),
        ("latch", 0, 16),
    ])
    def test_out_of_range_flip_is_refused(self, target, index, bit):
        """Events also come from journals and ``--resume``: a flip outside
        the 16-bit host state is refused and leaves the machine as it was."""
        sim = PipelinedSimulator(ways=6)
        sim.load([0] * 4)
        machine = sim.machine
        before = (list(machine.regs), bytes(machine.mem), machine.pc,
                  sim._fetch_pc)
        with pytest.raises(SimulatorError, match="outside the 16-bit"):
            apply_event(machine, FaultEvent(0, target, index, 0, bit),
                        pipeline=sim)
        assert (list(machine.regs), bytes(machine.mem), machine.pc,
                sim._fetch_pc) == before

    def test_latch_index_picks_a_stage_modulo_the_depth(self):
        from repro.asm import assemble

        sim = PipelinedSimulator(ways=6)
        sim.load(assemble("lex $0, 1\nlex $1, 2\nlex $2, 3\nsys\n"))
        sim.cycle()
        sim.cycle()
        stage = sim._pipe[1]
        assert stage is not None
        apply_event(sim.machine,
                    FaultEvent(0, "latch", 1 + 1000 * len(sim._pipe), 0, 3),
                    pipeline=sim)
        assert stage.pc == 8


class TestCampaign:
    def test_deterministic_report(self):
        kwargs = dict(program="fig10", runs=6, seed=7, sim="functional")
        first = render_report(run_campaign(**kwargs))
        second = render_report(run_campaign(**kwargs))
        assert first == second

    def test_every_run_classified(self):
        report = run_campaign(program="fig10", runs=8, seed=3)
        summary = report["summary"]
        assert (
            summary["detected"] + summary["masked"] + summary["silent"] == 8
        )
        assert len(report["runs_detail"]) == 8
        for run in report["runs_detail"]:
            assert run["outcome"] in ("detected", "masked", "silent")

    def test_golden_matches_fig10(self):
        report = run_campaign(program="fig10", runs=1, seed=1)
        assert {report["golden"]["r0"], report["golden"]["r1"]} == {3, 5}

    def test_pc_faults_get_detected(self):
        report = run_campaign(
            program="fig10", runs=12, seed=3, targets=("gpr", "mem", "pc")
        )
        assert report["summary"]["detected"] > 0

    def test_pipelined_pc_faults_get_detected(self):
        """A PC flip redirects the pipeline's fetch, not only ``machine.pc``
        (which EX overwrites), so control-flow faults are seen there too."""
        report = run_campaign(program="fig10", runs=12, seed=3,
                              sim="pipelined", targets=("pc",))
        assert report["summary"]["detected"] > 0
        assert report["summary"]["masked"] < 12

    def test_rejects_bad_program(self):
        with pytest.raises(ReproError):
            run_campaign(program="nosuch", runs=1)

    def test_program_is_assembled_once_per_process(self, monkeypatch):
        from repro.apps import fig10
        from repro.faults import campaign

        assembled = []

        def assemble(source):
            assembled.append(source)
            return real(source)

        real = fig10.assemble
        monkeypatch.setattr(fig10, "assemble", assemble)
        campaign._load_program.cache_clear()
        for seed in (1, 2):
            run_campaign(program="fig10", runs=2, seed=seed)
        assert len(assembled) == 1


class TestNetlistStuckAt:
    def _xor_net(self):
        net = Netlist()
        a = net.input("a")
        b = net.input("b")
        net.mark_output("y", [net.g_xor(a, b)])
        return net

    def test_stuck_at_forces_output(self):
        net = self._xor_net()
        inputs = {
            "a": np.array([False, True, False, True]),
            "b": np.array([False, False, True, True]),
        }
        clean = net.evaluate(inputs)["y"][0]
        assert list(clean) == [False, True, True, False]
        node = net.logic_nodes()[0]
        stuck = net.evaluate(inputs, stuck_at={node: True})["y"][0]
        assert list(stuck) == [True, True, True, True]

    def test_logic_nodes_excludes_inputs_and_consts(self):
        net = Netlist()
        a = net.input("a")
        c = net.const(True)
        g = net.g_and(a, c)
        net.mark_output("y", [g])
        assert net.logic_nodes() == [g]

    def test_stuck_at_plan_is_seeded(self):
        net = self._xor_net()
        assert stuck_at_plan(net, 9, 5) == stuck_at_plan(net, 9, 5)
        for node, value in stuck_at_plan(net, 9, 5):
            assert node in net.logic_nodes()
            assert isinstance(value, bool)

    def test_stuck_at_detection_sweep(self):
        """Exhaustive stimulus detects a stuck output on a tiny adder."""
        net = Netlist()
        a = net.input("a")
        b = net.input("b")
        net.mark_output("sum", [net.g_xor(a, b)])
        net.mark_output("carry", [net.g_and(a, b)])
        inputs = {
            "a": np.array([False, True, False, True]),
            "b": np.array([False, False, True, True]),
        }
        clean = net.evaluate(inputs)
        detected = 0
        for node in net.logic_nodes():
            for value in (False, True):
                faulty = net.evaluate(inputs, stuck_at={node: value})
                if any(
                    (faulty[name] != clean[name]).any() for name in clean
                ):
                    detected += 1
        # Every single stuck-at on this circuit is detectable with the
        # exhaustive 4-vector batch.
        assert detected == 2 * len(net.logic_nodes())
