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
from repro.faults.inject import FaultEvent, FaultPlan, apply_event
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
# RE lanes: one shared chunk store, gates grouped by operand identity
# ---------------------------------------------------------------------------

#: Every RE gate kind, then readouts that all run *after* the flip steps
#: the tests below choose, so a qreg fault stays observable in the GPRs.
_RE_READOUT = assemble(
    "had @1, 0\n"             # step 0
    "had @2, 3\n"             # 1
    "and @3, @1, @2\n"        # 2
    "xor @4, @1, @2\n"        # 3
    "cnot @4, @3\n"           # 4
    "ccnot @5, @1, @2\n"      # 5
    "cswap @3, @4, @5\n"      # 6
    "swap @1, @3\n"           # 7
    "not @2\n"                # 8
    "one @6\n"                # 9
    "zero @8\n"               # 10
    "or @7, @1, @2\n"         # 11
    "xor @7, @7, @6\n"        # 12
    "lex $0, 5\n"
    "meas $0, @7\n"
    "lex $1, 9\n"
    "next $1, @4\n"
    "lex $2, 0\n"
    "pop $2, @3\n"
    "lex $3, 100\n"
    "pop $3, @7\n"
    "lex $4, 0\n"
    "pop $4, @5\n"
    "lex $5, 0\n"
    "pop $5, @1\n"
    "lex $rv, 0\n"
    "sys\n"
).words


def _qreg_flip(step, reg, word, bit):
    return FaultPlan(seed=0, events=(
        FaultEvent(step=step, target="qreg", index=reg, word=word, bit=bit),))


class TestBatchREQat:
    def test_lanes_share_one_chunk_store(self):
        from repro.apps import fig10_program

        batch = _batch_run(fig10_program().words, [None] * 4, ways=8,
                           backend="re", max_steps=1000)
        qat = batch.machines.qat
        assert all(vector.store is qat.store
                   for row in qat.regs for vector in row)
        # Lanes that never diverged hold the very same result objects.
        assert all(a is b for a, b in zip(qat.regs[0], qat.regs[3]))

    def test_flip_in_one_lane_leaves_the_others_unfaulted(self):
        plans = [None, _qreg_flip(3, 1, 1, 7), None, None]
        batch = _batch_run(_RE_READOUT, plans, ways=8, backend="re",
                           max_steps=100)
        clean, _ = _serial_run(_RE_READOUT, None, ways=8, backend="re",
                               max_steps=100)
        expected = [clean.machine.read_qreg(i) for i in range(256)]
        for lane in (0, 2, 3):
            assert [batch.machines.read_qreg(lane, i)
                    for i in range(256)] == expected
        assert [batch.machines.read_qreg(1, i)
                for i in range(256)] != expected

    def test_divergent_lanes_match_serial_measurements(self):
        plans = [
            None,
            _qreg_flip(1, 1, 0, 3),      # feeds every later gate
            _qreg_flip(3, 3, 2, 5),
            _qreg_flip(3, 3, 2, 5),      # same fault, separate lane
            _qreg_flip(7, 5, 0, 17),     # cswap control, after the swap
            _qreg_flip(13, 7, 0, 5),     # the very channel meas reads
            _qreg_flip(6, 200, 3, 63),   # untouched register: masked
            None,
        ]
        batch = _batch_run(_RE_READOUT, plans, ways=8, backend="re",
                           max_steps=100)
        for lane, plan in enumerate(plans):
            sim, error = _serial_run(_RE_READOUT, plan, ways=8,
                                     backend="re", max_steps=100)
            assert error is None
            _assert_lane_matches(sim, error, batch, lane)
        regs = batch.machines.regs
        diverged = [lane for lane in range(len(plans))
                    if not np.array_equal(regs[lane], regs[0])]
        assert diverged == [1, 2, 3, 4, 5]

    def test_stats_re_volume_matches_serial(self, capsys):
        from repro.cli import main

        def re_counters(*extra):
            assert main(["faults", "--program", "fig10", "--qat-backend",
                         "re", "--runs", "24", "--stats", "--summary-only",
                         *extra]) == 0
            lines = capsys.readouterr().out.splitlines()
            return {line.split(" = ")[0].strip(): line.split(" = ")[1]
                    for line in lines if line.strip().startswith("qat.re.")}

        serial = re_counters()
        assert serial["qat.re.ops"] != "0"
        assert re_counters("--batch", "24") == serial


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
