"""Architectural trap model: causes, policies, and handler programs."""

from contextlib import nullcontext

import pytest

from repro import obs
from repro.asm import assemble
from repro.cpu import (
    FunctionalSimulator,
    MultiCycleSimulator,
    PipelineConfig,
    PipelinedSimulator,
    TrapAction,
    TrapCause,
    TrapPolicy,
)
from repro.errors import HaltedError, SyscallError, TrapError

SIMULATORS = [FunctionalSimulator, MultiCycleSimulator, PipelinedSimulator]
SIM_IDS = ["functional", "multicycle", "pipelined"]

HALT = "lex $rv, 0\nsys\n"

# One program per trap cause: (source, policy kwargs, expected trap PC).
# Expected PCs are None where the faulting PC is timing-dependent.
CAUSE_PROGRAMS = {
    TrapCause.ILLEGAL_OPCODE: (
        "lex $0, 1\n.word 0x6000\n" + HALT,
        {},
        1,
    ),
    TrapCause.UNKNOWN_SYSCALL: (
        "lex $rv, 99\nsys\n" + HALT,
        {},
        1,
    ),
    TrapCause.MEM_FAULT: (
        "lex $1, 0\nlhi $1, 0x90\nload $0, $1\n" + HALT,
        {"mem_fence": 0x8000},
        2,
    ),
    TrapCause.QAT_FAULT: (
        "lex $0, -1\nmeas $0, @0\n" + HALT,
        {"strict_qat": True},
        1,
    ),
    TrapCause.BF16_FAULT: (
        "lex $0, 0\nrecip $0\n" + HALT,
        {"trap_bf16": True},
        1,
    ),
}


def _run(sim_cls, source, policy, budget=10_000):
    sim = sim_cls(ways=6, trap_policy=policy)
    sim.load(assemble(source))
    sim.run(budget)
    return sim


@pytest.mark.parametrize("sim_cls", SIMULATORS, ids=SIM_IDS)
@pytest.mark.parametrize("cause", list(CAUSE_PROGRAMS), ids=lambda c: c.value)
class TestTrapCauses:
    def test_raise_policy_raises_typed_error(self, sim_cls, cause):
        source, knobs, expected_pc = CAUSE_PROGRAMS[cause]
        policy = TrapPolicy(**knobs)
        with pytest.raises(TrapError) as excinfo:
            _run(sim_cls, source, policy)
        assert excinfo.value.record.cause is cause
        assert excinfo.value.pc == expected_pc

    def test_halt_policy_records_and_stops(self, sim_cls, cause):
        source, knobs, expected_pc = CAUSE_PROGRAMS[cause]
        sim = _run(sim_cls, source, TrapPolicy.halting(**knobs))
        assert sim.machine.halted
        assert [t.cause for t in sim.machine.traps] == [cause]
        record = sim.machine.traps[0]
        assert record.pc == expected_pc
        if sim_cls is FunctionalSimulator:
            assert record.cycle is None
        else:
            assert record.cycle is not None


@pytest.mark.parametrize("sim_cls", SIMULATORS, ids=SIM_IDS)
class TestWatchdog:
    RUNAWAY = "lex $0, 1\nloop:\nbrt $0, loop\n"

    def test_raise_policy(self, sim_cls):
        with pytest.raises(TrapError) as excinfo:
            _run(sim_cls, self.RUNAWAY, TrapPolicy(), budget=64)
        assert excinfo.value.record.cause is TrapCause.WATCHDOG

    def test_halt_policy(self, sim_cls):
        sim = _run(sim_cls, self.RUNAWAY, TrapPolicy.halting(), budget=64)
        assert sim.machine.halted
        assert sim.machine.traps[-1].cause is TrapCause.WATCHDOG


@pytest.mark.parametrize("sim_cls", SIMULATORS, ids=SIM_IDS)
class TestHaltedErrorUniform:
    def test_step_after_halt_raises(self, sim_cls):
        sim = sim_cls(ways=6)
        sim.load(assemble(HALT))
        sim.run(1_000)
        assert sim.machine.halted
        with pytest.raises(HaltedError):
            sim.step()


class TestUnknownSyscallContext:
    def test_error_carries_service_and_pc(self):
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble("lex $rv, 42\nsys\n"))
        with pytest.raises(SyscallError) as excinfo:
            sim.run(100)
        assert excinfo.value.service == 42
        assert excinfo.value.pc == 1
        assert excinfo.value.instruction == "sys"


@pytest.mark.parametrize("sim_cls", SIMULATORS, ids=SIM_IDS)
class TestVectoredHandler:
    """A Tangled trap handler catches an illegal opcode and resumes."""

    SOURCE = (
        "lex $0, 1\n"
        ".word 0x6000\n"  # pc=1: unassigned major opcode -> illegal trap
        "lex $1, 2\n"     # pc=2: the resume point the handler returns to
        "lex $rv, 0\n"
        "sys\n"
        "handler:\n"
        "copy $2, $13\n"  # capture the cause code the trap wrote
        "jumpr $14\n"     # resume at the saved EPC
    )

    def test_handler_catches_and_resumes(self, sim_cls):
        program = assemble(self.SOURCE)
        policy = TrapPolicy.vectored(base=program.labels["handler"])
        sim = sim_cls(ways=6, trap_policy=policy)
        sim.load(program)
        sim.run(10_000)
        machine = sim.machine
        assert machine.halted
        # The handler ran: cause code captured, then execution resumed
        # past the illegal word and reached the halt.
        assert machine.read_reg(2) == TrapCause.ILLEGAL_OPCODE.code
        assert machine.read_reg(0) == 1
        assert machine.read_reg(1) == 2
        assert [t.cause for t in machine.traps] == [TrapCause.ILLEGAL_OPCODE]
        assert machine.traps[0].pc == 1

    def test_per_cause_handler_address(self, sim_cls):
        program = assemble(self.SOURCE)
        handler = program.labels["handler"]
        policy = TrapPolicy(
            actions={TrapCause.ILLEGAL_OPCODE: TrapAction.VECTOR},
            handlers={TrapCause.ILLEGAL_OPCODE: handler},
        )
        sim = sim_cls(ways=6, trap_policy=policy)
        sim.load(program)
        sim.run(10_000)
        assert sim.machine.halted
        assert sim.machine.read_reg(2) == TrapCause.ILLEGAL_OPCODE.code


class TestPipelineTrapAccounting:
    def test_vectored_trap_counts_and_squashes(self):
        program = assemble(TestVectoredHandler.SOURCE)
        policy = TrapPolicy.vectored(base=program.labels["handler"])
        sim = PipelinedSimulator(ways=6, trap_policy=policy)
        sim.load(program)
        stats = sim.run(10_000)
        assert stats.traps == 1
        assert sim.machine.read_reg(2) == TrapCause.ILLEGAL_OPCODE.code

    def test_raise_policy_keeps_precise_state(self):
        source = "lex $0, 7\nlex $1, 9\n.word 0x6000\nlex $0, 99\n" + HALT
        sim = PipelinedSimulator(ways=6)
        sim.load(assemble(source))
        with pytest.raises(TrapError) as excinfo:
            sim.run(10_000)
        assert excinfo.value.pc == 2
        # Everything before the faulting instruction retired; nothing
        # after it did.
        assert sim.machine.read_reg(0) == 7
        assert sim.machine.read_reg(1) == 9

    @pytest.mark.parametrize("observed", [False, True],
                             ids=["stripped", "stepped"])
    @pytest.mark.parametrize("stages", [4, 5])
    @pytest.mark.parametrize("source, budget", [
        ("lex $0, 7\nlex $1, 9\n.word 0x6000\nlex $0, 99\n" + HALT, 10_000),
        ("spin: br spin\n", 100),
    ], ids=["illegal", "watchdog"])
    def test_escaping_trap_leaves_retired_at_instret(self, source, budget,
                                                     stages, observed):
        # An errored `tangled run` records retired and CPI in the ledger.
        sim = PipelinedSimulator(ways=6, config=PipelineConfig(stages=stages))
        sim.load(assemble(source))
        with obs.capture() if observed else nullcontext():
            with pytest.raises(TrapError):
                sim.run(budget)
        assert sim.stats.retired == sim.machine.instret > 0
        assert sim.stats.cpi == sim.stats.cycles / sim.machine.instret
