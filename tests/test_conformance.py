"""Every engine against the one oracle, on the one program strategy.

See :mod:`tests.conformance` for the strategy, the oracle and the
engine registry.  The ``@example`` programs pin past divergences.
"""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings

from repro.apps import fig10_program
from repro.asm import assemble
from repro.cpu import FunctionalSimulator, fastpath
from repro.faults.traps import TrapPolicy
from repro.isa import Instr, encode
from repro.quantum import QuantumSimulator

from tests.conformance import (BACKENDS, ENGINES, HANDLER_STUB, PIPELINES,
                               STORE_AT_ZERO, Program, check,
                               every_leader_hot, pipeline_timing, programs,
                               run_engine, store_ahead)

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


#: A loop whose body is cut into translated blocks of ``MAX_BLOCK``
#: instructions, each cut between a producer and its consumer: a
#: two-cycle single-port ``swap`` (the latest a first free EX cycle and
#: a Qat ready cycle can be), then a 5-stage load.  A block starting
#: there, or after the loop's jump with a two-word fetch second, sees
#: the timing state at the extremes its compiled scoreboard assumes.
CUT_LOOP = ("lex $15, 2\nlex $13, -1\nloadi $1, 0x4000\nloop:\n"
            "lex $4, 0\nxor @5, @6, @7\n"
            + "lex $4, 0\n" * (fastpath.MAX_BLOCK - 3) + "swap @1, @2\n"
            + "not @1\n" + "lex $4, 0\n" * (fastpath.MAX_BLOCK - 2)
            + "load $2, $1\nadd $3, $2\nadd $15, $13\njumpt $15, loop\n"
            "lex $rv, 0\nsys\n")


@settings(max_examples=10, deadline=None)
@given(programs())
@example(Program.from_asm(HAZARD_LOOP))
@example(Program.from_asm(CUT_LOOP))
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


@pytest.mark.parametrize("stem", PIPELINES)
def test_every_watchdog_budget_cuts_hot_pipeline_loops_alike(stem):
    """With every leader hot, a budget that falls inside a translated
    block runs none of it: the per-instruction path makes the same cut
    as the stepped loop."""
    program = Program.from_asm(HAZARD_LOOP)
    with every_leader_hot():
        for budget in range(160):
            run, stepped = pipeline_timing(stem, program,
                                           TrapPolicy.halting(), budget)
            assert run == stepped, f"budget {budget}"


#: Table 3's permutation gates: qubit count, Qat assembly, and the
#: ``repro.quantum`` gate with the same operand order.
TABLE3_GATES = {
    "not": (1, "not @{0}", "x"),
    "cnot": (2, "cnot @{0}, @{1}", "cnot"),
    "ccnot": (3, "ccnot @{0}, @{1}, @{2}", "ccnot"),
    "swap": (2, "swap @{0}, @{1}", "swap"),
    "cswap": (3, "cswap @{0}, @{1}, @{2}", "cswap"),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("backend,ways", [("dense", 3), ("dense", 4),
                                          ("dense", 5), ("dense", 6),
                                          ("re", 6)])
def test_table3_gates_match_the_state_vector_baseline(backend, ways, seed):
    """Anchor: after ``had @q, q`` channel ``e`` of ``@0..@w-1`` spells
    basis state ``e``, and each Table 3 gate must move every channel to
    the basis state a quantum computer reaches from ``e``."""
    rng = random.Random(seed)
    gates = []
    for _ in range(40):
        name = rng.choice(sorted(TABLE3_GATES))
        gates.append((name, rng.sample(range(ways), TABLE3_GATES[name][0])))
    source = "".join(f"had @{q}, {q}\n" for q in range(ways))
    source += "".join(TABLE3_GATES[name][1].format(*qubits) + "\n"
                      for name, qubits in gates)
    sim = FunctionalSimulator(ways=ways, qat_backend=backend)
    sim.load(assemble(source + "lex $rv, 0\nsys\n"))
    sim.run()
    qregs = [sim.machine.read_qreg(q) for q in range(ways)]
    quantum = QuantumSimulator(ways)
    for e in range(1 << ways):
        quantum.reset(e)
        for name, qubits in gates:
            getattr(quantum, TABLE3_GATES[name][2])(*qubits)
        (basis,) = np.flatnonzero(quantum.state)
        assert sum(qregs[q][e] << q for q in range(ways)) == basis, e
