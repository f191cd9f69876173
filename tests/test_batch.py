"""Batched simulator: lockstep equivalence with the serial fast path.

The contract of :mod:`repro.cpu.batch` is that N lanes stepped in
lockstep over NumPy arrays are architecturally indistinguishable from
N serial :class:`~repro.cpu.FunctionalSimulator` runs: same registers,
memory, Qat state, output, trap records (mapped per lane), same error
strings for parked lanes, and -- the bar the campaign driver relies on
-- byte-identical campaign reports for ``--batch N`` vs serial.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cpu import BatchFunctionalSimulator, FunctionalSimulator
from repro.errors import ReproError, SimulatorError
from repro.faults.campaign import render_report, run_campaign
from repro.faults.inject import FaultPlan, apply_event
from repro.faults.traps import TrapCause, TrapDelivered

from tests.test_pipeline import random_program

BACKENDS = ["dense", "re"]


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _serial_run(words, plan, *, ways, backend, max_steps):
    """One serial lane: campaign-style drive with per-step fault events.

    Returns ``(sim, error)`` where ``error`` is the stringified trap
    for a run that died (what the batch engine parks the lane with).
    """
    sim = FunctionalSimulator(ways=ways, qat_backend=backend)
    sim.use_fastpath = False  # step() loop so events land between steps
    sim.load(list(words))
    error = None
    step = 0
    try:
        while not sim.machine.halted:
            if step >= max_steps:
                try:
                    sim.machine.trap(
                        TrapCause.WATCHDOG,
                        detail=f"exceeded {max_steps} steps without halting",
                    )
                except TrapDelivered:
                    pass
                break
            if plan is not None:
                for event in plan.due(step):
                    apply_event(sim.machine, event)
            sim.step()
            step += 1
    except SimulatorError as exc:
        error = str(exc)
    return sim, error


def _batch_run(words, plans, *, ways, backend, max_steps):
    batch = BatchFunctionalSimulator(len(plans), ways=ways,
                                     qat_backend=backend)
    batch.load(list(words))
    batch.run(max_steps=max_steps, plans=plans)
    return batch


def _assert_lane_matches(sim, error, batch, lane) -> None:
    bm = batch.machines
    m = sim.machine
    assert np.array_equal(np.asarray(m.regs, dtype=np.uint16),
                          bm.regs[lane])
    assert np.array_equal(np.asarray(m.mem, dtype=np.uint16), bm.mem[lane])
    assert [r.as_dict() for r in m.traps] == \
        [r.as_dict() for r in bm.traps[lane]]
    assert list(m.output) == list(bm.output[lane])
    assert error == bm.errors[lane]
    if error is None:
        # A parked lane's pc/instret freeze where the trap fired, which
        # for a raising trap the serial path never observes.
        assert m.pc == int(bm.pc[lane])
        assert m.instret == int(bm.instret[lane])
        assert m.halted == bool(bm.halted[lane])
        assert [m.read_qreg(i) for i in range(256)] == \
            [bm.read_qreg(lane, i) for i in range(256)]


# ---------------------------------------------------------------------------
# State differential: random programs x fault plans x backends
# ---------------------------------------------------------------------------

class TestBatchVsSerialState:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_programs_lockstep(self, backend, data):
        words = random_program(data)
        lanes = 5
        plans = [None] * lanes
        batch = _batch_run(words, plans, ways=6, backend=backend,
                           max_steps=2000)
        sim, error = _serial_run(words, None, ways=6, backend=backend,
                                 max_steps=2000)
        for lane in range(lanes):
            _assert_lane_matches(sim, error, batch, lane)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_programs_with_fault_plans(self, backend, data):
        """Each lane gets its own plan; serial lanes must match 1:1."""
        words = random_program(data)
        plans = [
            FaultPlan.from_seed(seed, n_faults=2, max_step=64, ways=6,
                                targets=("gpr", "mem", "qreg", "pc"))
            for seed in (data.draw(st.integers(0, 2**31)),
                         data.draw(st.integers(0, 2**31)),
                         None)
            if seed is not None
        ] + [None]
        batch = _batch_run(words, plans, ways=6, backend=backend,
                           max_steps=400)
        for lane, plan in enumerate(plans):
            sim, error = _serial_run(words, plan, ways=6, backend=backend,
                                     max_steps=400)
            _assert_lane_matches(sim, error, batch, lane)

    def test_divergent_lanes_park_independently(self):
        """A lane that traps parks; the others run to completion."""
        words = assemble(
            "lex $1, 40\n"
            "load $2, $1\n"       # word 40 differs per lane after injection
            "brt $2, bad\n"
            "lex $rv, 0\n"
            "sys\n"
            "bad:\n"
        ).words + [0x6000]        # illegal opcode on the poisoned path
        from repro.faults.inject import FaultEvent
        poison = FaultPlan(seed=0, events=(
            FaultEvent(step=0, target="mem", index=40, word=0, bit=0),))
        batch = _batch_run(words, [None, poison, None],
                           ways=6, backend="dense", max_steps=100)
        bm = batch.machines
        assert bool(bm.halted[0]) and bool(bm.halted[2])
        assert bool(bm.parked[1]) and not bm.halted[1]
        assert "unassigned major opcode" in bm.errors[1]
        assert [r.cause.value for r in bm.traps[1]] == ["illegal_opcode"]

    def test_watchdog_parks_all_active_lanes(self):
        words = assemble("spin: br spin\n").words
        batch = _batch_run(words, [None] * 3, ways=6,
                           backend="dense", max_steps=10)
        bm = batch.machines
        assert bm.parked.all()
        for lane in range(3):
            assert "exceeded 10 steps" in bm.errors[lane]
            assert bm.traps[lane][-1].cause is TrapCause.WATCHDOG


# ---------------------------------------------------------------------------
# Campaign report bytes: --batch N vs serial vs --jobs
# ---------------------------------------------------------------------------

class TestBatchCampaignBytes:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("batch", [3, 16])
    def test_report_bytes_identical(self, backend, batch):
        kwargs = dict(program="fig10", runs=12, seed=7, faults_per_run=2,
                      targets=("gpr", "mem", "qreg", "pc"),
                      qat_backend=backend)
        serial = run_campaign(**kwargs)
        batched = run_campaign(batch=batch, **kwargs)
        assert render_report(serial).encode() == \
            render_report(batched).encode()

    def test_report_bytes_identical_factor(self):
        serial = run_campaign(program="factor", runs=6, seed=11)
        batched = run_campaign(program="factor", runs=6, seed=11, batch=4)
        assert render_report(serial).encode() == \
            render_report(batched).encode()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_batch_matches_jobs(self, backend):
        kwargs = dict(program="fig10", runs=8, seed=7, qat_backend=backend)
        jobs = run_campaign(jobs=2, **kwargs)
        batched = run_campaign(batch=8, **kwargs)
        assert render_report(jobs).encode() == \
            render_report(batched).encode()

    def test_batch_needs_functional_sim(self):
        with pytest.raises(ReproError, match="functional"):
            run_campaign(runs=2, batch=2, sim="multicycle")

    def test_batch_and_jobs_mutually_exclusive(self):
        with pytest.raises(ReproError, match="mutually exclusive"):
            run_campaign(runs=2, batch=2, jobs=2)

    def test_batch_must_be_positive(self):
        with pytest.raises(ReproError, match="positive"):
            run_campaign(runs=2, batch=0)
