"""Every engine against the one oracle, on the one program strategy.

See :mod:`tests.conformance` for the strategy, the oracle and the
engine registry.  The ``@example`` programs pin past divergences.
"""

import pytest
from hypothesis import example, given, settings

from repro.apps import fig10_program
from repro.faults.traps import TrapPolicy
from repro.isa import Instr, encode

from tests.conformance import (BACKENDS, ENGINES, HANDLER_STUB, STORE_AT_ZERO,
                               Program, check, programs, run_engine,
                               store_ahead)

LEX = encode(Instr("lex", (0, 1)))[0]


@settings(max_examples=10, deadline=None)
@given(programs())
# A store into the instruction already latched in ID (the pipeline used
# to run the old word), and one far enough ahead that IF has not read it.
@example(Program.from_asm(store_ahead(0)))
@example(Program.from_asm(store_ahead(8)))
@example(Program.from_asm(STORE_AT_ZERO))
# An unassigned opcode: every engine records the decoder's own detail.
@example(Program((LEX, LEX, 0x6000) + HANDLER_STUB))
# A runaway loop: the step watchdog fires at the same step everywhere.
@example(Program.from_asm("spin: br spin\n"))
# 65,536 ones after channel 65,535 of a 17-way register: qpop saturates
# to 0xFFFF (traps under strict_qat) instead of wrapping to 0.
@example(Program.from_asm("one @5\nlex $0, -1\npop $0, @5\nlex $rv, 0\nsys\n",
                          ways=17))
def test_every_engine_matches_the_oracle(program):
    check(program)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", ENGINES)
def test_fig10_factors_15_everywhere(engine, backend):
    """Paper Figure 10 finds the factors {3, 5} of 15 on every engine."""
    program = Program(tuple(fig10_program().words) + HANDLER_STUB, ways=8)
    for state in run_engine(engine, program, backend, TrapPolicy()):
        assert state["halted"] and not state["traps"]
        assert sorted(state["regs"][:2]) == [3, 5]
