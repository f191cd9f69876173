"""A committed dense checkpoint keeps loading and resuming across releases.

``tests/data/fig10_dense_ways8.npz`` is Figure 10 on an 8-way dense Qat
backend, captured after :data:`STEPS` functional steps by a build whose
register file was a ``(256, 4)`` uint64 matrix.  Its on-disk ``qregs``
array and digest must stay valid for a register file of any in-memory
representation: it loads, its digest verifies, a fresh capture at the
same point is the same content, and resuming it reaches the same end
state as an uninterrupted run.

To rewrite the fixture from a checkout of an older build (the point is
that the file is *not* written by the code under test)::

    PYTHONPATH=<old checkout>/src:tests python -c \\
        "import test_checkpoint_compat_dense as t; t.write_fixture()"
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.apps import fig10_program
from repro.cpu import FunctionalSimulator
from repro.faults import Checkpoint
from repro.isa.registers import NUM_QAT_REGS

FIXTURE = Path(__file__).parent / "data" / "fig10_dense_ways8.npz"
#: Steps run before the capture: mid-way through Figure 10's 92.
STEPS = 46


def _sim() -> FunctionalSimulator:
    sim = FunctionalSimulator(8, qat_backend="dense")
    sim.load(fig10_program())
    return sim


def write_fixture(path: Path = FIXTURE) -> None:
    """Capture Figure 10 after :data:`STEPS` steps into ``path``."""
    sim = _sim()
    for _ in range(STEPS):
        sim.step()
    Checkpoint.take(sim.machine).save(str(path))


def _state(sim) -> tuple:
    machine = sim.machine
    return (machine.pc, machine.halted, machine.instret,
            tuple(int(r) for r in machine.regs), tuple(machine.output),
            [machine.qat.read(reg) for reg in range(NUM_QAT_REGS)])


def test_fixture_loads_and_verifies():
    ckpt = Checkpoint.load(str(FIXTURE))
    assert ckpt.qat_backend == "dense" and ckpt.qat_ways == 8
    assert ckpt.instret == STEPS
    assert ckpt.qregs.shape == (NUM_QAT_REGS, 4)
    assert ckpt.qregs.dtype == np.uint64
    assert ckpt.store_chunks == ()
    assert ckpt.verify()


def test_fixture_matches_a_fresh_capture():
    old = Checkpoint.load(str(FIXTURE))
    sim = _sim()
    for _ in range(STEPS):
        sim.step()
    new = Checkpoint.take(sim.machine)
    assert new.digest == old.digest
    assert np.array_equal(new.qregs, old.qregs)


def test_fixture_resumes_like_an_uninterrupted_run():
    reference = _sim()
    reference.run()
    assert (reference.machine.read_reg(0),
            reference.machine.read_reg(1)) == (5, 3)

    resumed = _sim()
    Checkpoint.load(str(FIXTURE)).restore(resumed.machine)
    assert resumed.machine.instret == STEPS
    resumed.advance(1_000_000)
    assert resumed.machine.halted
    assert _state(resumed) == _state(reference)
