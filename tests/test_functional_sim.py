"""Functional simulator behaviour: loading, stepping, halting, errors."""

import pytest

from repro.asm import assemble
from repro.cpu import FunctionalSimulator
from repro.cpu.trace import ExecutionTrace
from repro.errors import HaltedError, SimulatorError


class TestLifecycle:
    def test_load_raw_words(self):
        sim = FunctionalSimulator(ways=6)
        sim.load([0x1700])  # sys
        sim.run()
        assert sim.machine.halted

    def test_step_returns_effects(self):
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble("lex $0, 9\nsys\n"))
        eff = sim.step()
        assert eff.mnemonic == "lex"
        assert eff.writes_gpr == frozenset({0})

    def test_step_after_halt_raises(self):
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble("sys\n"))
        sim.run()
        with pytest.raises(HaltedError):
            sim.step()

    def test_run_budget(self):
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble("spin:\tbr spin\n"))
        with pytest.raises(SimulatorError):
            sim.run(max_steps=100)

    def test_instret_counts(self):
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble("lex $0, 1\nlex $1, 2\nsys\n"))
        sim.run()
        assert sim.machine.instret == 3

    def test_origin_entry(self):
        p = assemble(".origin 0x40\nstart: lex $0, 3\nsys\n", origin=0x40)
        sim = FunctionalSimulator(ways=6)
        sim.load(p, origin=0x40)
        sim.run()
        assert sim.machine.read_reg(0) == 3


class TestTrace:
    def test_trace_records(self):
        trace = ExecutionTrace()
        sim = FunctionalSimulator(ways=6, trace=trace)
        sim.load(assemble("lex $0, 1\nhad @0, 2\nsys\n"))
        sim.run()
        assert len(trace) == 3
        assert trace.entries[0].instr.mnemonic == "lex"
        assert trace.mix() == {"alu": 1, "qat": 1, "sys": 1}

    def test_trace_limit(self):
        trace = ExecutionTrace(limit=1)
        sim = FunctionalSimulator(ways=6, trace=trace)
        sim.load(assemble("lex $0, 1\nlex $1, 2\nsys\n"))
        sim.run()
        assert len(trace) == 1

    def test_trace_render(self):
        trace = ExecutionTrace()
        sim = FunctionalSimulator(ways=6, trace=trace)
        sim.load(assemble("lex $0, 1\nsys\n"))
        sim.run()
        assert "lex" in trace.render()


class TestStateIntegrity:
    def test_snapshot_captures_state(self):
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble("lex $0, 5\nhad @3, 1\nsys\n"))
        sim.run()
        snap = sim.machine.snapshot()
        assert snap["regs"][0] == 5
        assert snap["halted"]
        assert snap["qregs"][3] != 0

    def test_memory_wraps_16_bit_addresses(self):
        sim = FunctionalSimulator(ways=6)
        sim.machine.write_mem(0x1FFFF, 42)
        assert sim.machine.read_mem(0xFFFF) == 42

    def test_write_reg_truncates(self):
        sim = FunctionalSimulator(ways=6)
        sim.machine.write_reg(0, 0x12345)
        assert sim.machine.read_reg(0) == 0x2345

    def test_read_reg_signed(self):
        sim = FunctionalSimulator(ways=6)
        sim.machine.write_reg(0, 0xFFFF)
        assert sim.machine.read_reg_signed(0) == -1

    def test_program_too_big_rejected(self):
        sim = FunctionalSimulator(ways=6)
        with pytest.raises(SimulatorError):
            sim.machine.load_program([0] * 10, origin=0xFFFF)

    def test_bad_ways_rejected(self):
        # The dense bound is MAX_DENSE_WAYS (26), not the old hardcoded
        # 20; anything past it must name the RE backend as the way out.
        from repro.cpu import MachineState

        with pytest.raises(SimulatorError, match="'re' backend"):
            MachineState(ways=27)

    def test_write_qreg_checks_ways(self):
        from repro.aob import AoB

        sim = FunctionalSimulator(ways=6)
        with pytest.raises(SimulatorError):
            sim.machine.write_qreg(0, AoB.zeros(8))
