"""Seeded fault injection: plans, campaigns, degradation, stuck-at."""

import numpy as np
import pytest

from repro.aob import AoB
from repro.cpu import FunctionalSimulator, PipelinedSimulator
from repro.errors import ReproError
from repro.faults import (
    FaultEvent,
    FaultPlan,
    apply_event,
    flip_chunk_bit,
    run_campaign,
    stuck_at_plan,
)
from repro.faults.campaign import render_report
from repro.hw.netlist import Netlist
from repro.pattern import ChunkStore, PatternVector


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


class TestChunkStoreDegradation:
    def test_corrupted_chunk_degrades_not_crashes(self):
        store = ChunkStore(6)
        pv = PatternVector.hadamard(8, 2, store=store)
        sym = pv.runs[0][0]
        before = pv.meas(0)
        flip_chunk_bit(store, sym, 0)
        assert store.degraded == 0
        after = pv.meas(0)  # must not raise
        assert after == before ^ 1
        assert store.degraded == 1

    def test_degraded_chunk_becomes_new_truth(self):
        store = ChunkStore(6)
        pv = PatternVector.zeros(8, store=store)
        flip_chunk_bit(store, store.zero_id, 3)
        assert pv.meas(3) == 1
        assert store.degraded == 1
        # Digest refreshed: further reads see a consistent store.
        assert pv.meas(3) == 1
        assert store.degraded == 1

    def test_out_of_range_symbol_degrades_to_zero_chunk(self):
        store = ChunkStore(6)
        chunk = store.chunk_safe(999)
        assert chunk == AoB.zeros(6)
        assert store.degraded == 1

    def test_degradation_purges_memo_entries(self):
        store = ChunkStore(6)
        a = store.intern(AoB.hadamard(6, 1))
        assert store.popcount(a) == 32
        flip_chunk_bit(store, a, 0)
        store.chunk_safe(a)  # detect + adopt
        assert store.popcount(a) in (31, 33)

    def test_gate_memos_work_after_degradation(self):
        # The purge must leave the gate memos usable: hits move entries
        # to the end and inserts past memo_limit evict the oldest.
        store = ChunkStore(6, memo_limit=2)
        a = store.intern(AoB.hadamard(6, 1))
        b = store.intern(AoB.hadamard(6, 2))
        c = store.intern(AoB.hadamard(6, 3))
        store.binop("and", a, b)
        store.bnot(b)
        flip_chunk_bit(store, a, 0)
        store.chunk_safe(a)  # detect + adopt, purging a's entries
        assert store.degraded == 1
        for _ in range(2):  # the second pass hits the memo
            ab = store.binop("and", a, b)
            na = store.bnot(a)
        assert store.chunk(ab) == store.chunk(a) & store.chunk(b)
        assert store.chunk(na) == ~store.chunk(a)
        evicted = store.memo_evicted
        store.binop("or", a, c)
        store.binop("xor", b, c)
        store.bnot(c)
        assert store.memo_evicted > evicted
        assert len(store._binop_cache) <= 2
        assert len(store._not_cache) <= 2

    def test_stats_include_degraded(self):
        store = ChunkStore(6)
        store.chunk_safe(12345)
        assert store.stats()["degraded"] == 1


class TestCheckpointChunks:
    def test_store_chunks_round_trip(self):
        store = ChunkStore(6)
        pv = PatternVector.hadamard(8, 1, store=store)
        captured = store.chunks()
        flip_chunk_bit(store, pv.runs[0][0], 2)
        store.restore_chunks(captured)
        assert store.degraded == 0
        assert pv.meas(2) == PatternVector.hadamard(8, 1, store=store).meas(2)


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
