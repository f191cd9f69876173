"""A committed RE checkpoint keeps loading and resuming across releases.

``tests/data/fig10_re_ways8_cw6.npz`` is Figure 10 on an 8-way RE Qat
backend with 6-way chunks (four chunks per register), captured after
:data:`STEPS` functional steps by a build whose chunk store still held
numpy AoB symbols.  Its on-disk format (``FORMAT_VERSION`` and the
``chunk_<i>`` uint64 payloads) must stay readable: it loads, its digest
verifies, and resuming it reaches the same registers and Qat values as
an uninterrupted run.

To rewrite the fixture from a checkout of an older build (the point is
that the file is *not* written by the code under test)::

    PYTHONPATH=<old checkout>/src:tests python -c \\
        "import test_checkpoint_compat as t; t.write_fixture()"
"""

from __future__ import annotations

from pathlib import Path

from repro.apps import fig10_program
from repro.cpu import FunctionalSimulator
from repro.cpu.qat_backend import REQatBackend
from repro.faults import FORMAT_VERSION, Checkpoint
from repro.isa.registers import NUM_QAT_REGS

FIXTURE = Path(__file__).parent / "data" / "fig10_re_ways8_cw6.npz"
#: Steps run before the capture: mid-way through Figure 10's 92.
STEPS = 46


def _sim() -> FunctionalSimulator:
    sim = FunctionalSimulator(8, qat_backend=REQatBackend(8, chunk_ways=6))
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
    assert FORMAT_VERSION == 1
    assert ckpt.qat_backend == "re" and ckpt.qat_ways == 8
    assert ckpt.store_chunk_ways == 6
    assert ckpt.instret == STEPS
    assert len(ckpt.store_chunks) > 2
    assert all(words.shape == (1,) and words.dtype == "uint64"
               for words in ckpt.store_chunks)
    assert ckpt.verify()


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


def test_fixture_matches_a_fresh_capture():
    """The capture this build takes at the same point is the same file
    content: identical run lists, chunk payloads and digest."""
    old = Checkpoint.load(str(FIXTURE))
    sim = _sim()
    for _ in range(STEPS):
        sim.step()
    new = Checkpoint.take(sim.machine)
    assert new.digest == old.digest
    assert new.qat_runs == old.qat_runs
    assert [w.tolist() for w in new.store_chunks] == \
        [w.tolist() for w in old.store_chunks]
