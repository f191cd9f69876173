"""Every engine against the one oracle, on the one program strategy.

See :mod:`tests.conformance` for the strategy, the oracle and the
engine registry.  The ``@example`` programs pin past divergences.
"""

import pytest
from hypothesis import example, given, settings

from repro.apps import fig10_program
from repro.faults.traps import TrapPolicy
from repro.isa import Instr, encode

from tests.conformance import (BACKENDS, ENGINES, HANDLER_STUB, PIPELINES,
                               STORE_AT_ZERO, Program, check,
                               pipeline_timing, programs, run_engine,
                               store_ahead)

LEX = encode(Instr("lex", (0, 1)))[0]
#: Steady-state hazards random draws never reach, run six times round a
#: counted loop: a store into data, a load-use pair, a RAW chain, the
#: two-word qswap/qcswap (single-port structural stall) and Qat fetch,
#: and a taken and an untaken branch per trip.
HAZARD_LOOP = """\
lex $15, 6
lex $13, -1
loadi $1, 0x4000
loop:
store $15, $1
load $2, $1
add $2, $2
add $3, $2
add $4, $3
had @1, 2
swap @1, @2
cswap @1, @2, @3
and @4, @1, @2
brf $15, skip
lex $5, 1
skip:
add $15, $13
brt $15, loop
lex $rv, 0
sys
"""


@settings(max_examples=10, deadline=None)
@given(programs())
@example(Program.from_asm(HAZARD_LOOP))
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


@pytest.mark.parametrize("stem", PIPELINES)
def test_every_watchdog_budget_cuts_both_pipeline_loops_alike(stem):
    """The stripped loop keeps exactly the stalls, fetches and structural
    cycles the stepped loop counted up to its watchdog's cycle."""
    program = Program.from_asm(HAZARD_LOOP)
    for budget in range(160):  # every configuration halts by cycle 152
        run, stepped = pipeline_timing(stem, program, TrapPolicy.halting(),
                                       budget)
        assert run == stepped, f"budget {budget}"
