"""Batched simulator: every lane matches a serial run of its engine.

The contract of :mod:`repro.cpu.batch` is that N lanes loaded with one
image are architecturally indistinguishable from N serial runs of the
same engine stepped one at a time with their fault events applied
between steps: same registers, memory, Qat state, output, trap records,
error strings and clocks -- and, the bar campaigns rely on, campaign
reports byte-identical to committed ones whatever ``batch`` and
``jobs`` are.
"""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cpu import (BatchFunctionalSimulator, FunctionalSimulator,
                       fastpath, new_simulator)
from repro.errors import ReproError, SimulatorError
from repro.faults.campaign import render_report, run_campaign
from repro.faults.inject import FaultEvent, FaultPlan, apply_event
from repro.faults.traps import TrapCause, fire_watchdog

from tests.conformance import programs

BACKENDS = ["dense", "re"]

#: Committed campaign reports, one per engine and backend, made with
#: ``tangled faults --program fig10 --runs 32 --seed 7 --faults-per-run 2
#: --targets gpr,mem,qreg,pc,latch --sim SIM --qat-backend BACKEND``.
GOLDEN = Path(__file__).parent / "data" / "campaigns"
GOLDEN_ARGS = dict(program="fig10", runs=32, seed=7, faults_per_run=2,
                   targets=("gpr", "mem", "qreg", "pc", "latch"))


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------

def _serial_run(words, plan, *, ways, backend, max_steps, sim="functional",
                origin=None):
    """One serial run: campaign-style drive with per-step fault events.

    Returns ``(sim, error)`` where ``error`` is the stringified trap
    for a run that died (what the batch records for its lane).
    """
    pipeline = sim == "pipelined"
    sim = new_simulator(sim, ways, backend)
    sim.load(list(words), origin)
    error = None
    step = 0
    try:
        while step < max_steps and not sim.machine.halted:
            if plan is not None:
                for event in plan.due(step):
                    apply_event(sim.machine, event,
                                pipeline=sim if pipeline else None)
            sim.step()
            step += 1
        if not sim.machine.halted:
            fire_watchdog(sim.machine,
                          f"exceeded {max_steps} steps without halting")
    except SimulatorError as exc:
        error = str(exc)
    return sim, error


def _batch_run(words, plans, *, ways, backend, max_steps, sim="functional",
               origin=None):
    batch = BatchFunctionalSimulator(len(plans), ways=ways,
                                     qat_backend=backend, sim=sim)
    batch.load(list(words), origin)
    batch.run(max_steps=max_steps, plans=plans)
    return batch


def _assert_lane_matches(sim, error, batch, lane) -> None:
    m, got = sim.machine, batch.lanes[lane].machine
    assert m.regs == got.regs
    assert m.mem == got.mem
    assert [r.as_dict() for r in m.traps] == [r.as_dict() for r in got.traps]
    assert m.output == got.output
    assert error == batch.errors[lane]
    assert m.pc == got.pc
    assert m.instret == got.instret
    assert m.halted == got.halted
    assert [m.read_qreg(i) for i in range(256)] == \
        [got.read_qreg(i) for i in range(256)]


# ---------------------------------------------------------------------------
# State differential: random programs x fault plans x backends
# ---------------------------------------------------------------------------

class TestBatchVsSerialState:
    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(program=programs())
    def test_random_programs_lockstep(self, backend, program):
        lanes = 5
        plans = [None] * lanes
        batch = _batch_run(program.words, plans, ways=program.ways,
                           backend=backend, max_steps=2000)
        sim, error = _serial_run(program.words, None, ways=program.ways,
                                 backend=backend, max_steps=2000)
        for lane in range(lanes):
            _assert_lane_matches(sim, error, batch, lane)

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_random_programs_with_fault_plans(self, backend, data):
        """Each lane gets its own plan; serial runs must match 1:1."""
        program = data.draw(programs())
        words, ways = program.words, program.ways
        plans = [
            FaultPlan.from_seed(seed, n_faults=2, max_step=64, ways=ways,
                                targets=("gpr", "mem", "qreg", "pc"))
            for seed in (data.draw(st.integers(0, 2**31)),
                         data.draw(st.integers(0, 2**31)),
                         None)
            if seed is not None
        ] + [None]
        batch = _batch_run(words, plans, ways=ways, backend=backend,
                           max_steps=400)
        for lane, plan in enumerate(plans):
            sim, error = _serial_run(words, plan, ways=ways, backend=backend,
                                     max_steps=400)
            _assert_lane_matches(sim, error, batch, lane)

    def test_divergent_lanes_park_independently(self):
        """A lane whose trap raises stops; the others run to completion."""
        words = assemble(
            "lex $1, 40\n"
            "load $2, $1\n"       # word 40 differs per lane after injection
            "brt $2, bad\n"
            "lex $rv, 0\n"
            "sys\n"
            "bad:\n"
        ).words + [0x6000]        # illegal opcode on the poisoned path
        poison = FaultPlan(seed=0, events=(
            FaultEvent(step=0, target="mem", index=40, word=0, bit=0),))
        batch = _batch_run(words, [None, poison, None],
                           ways=6, backend="dense", max_steps=100)
        halted = [lane.machine.halted for lane in batch.lanes]
        assert halted == [True, False, True]
        assert batch.errors[0] is None and batch.errors[2] is None
        assert "unassigned major opcode" in batch.errors[1]
        assert [r.cause.value for r in batch.lanes[1].machine.traps] == \
            ["illegal_opcode"]

    def test_watchdog_parks_all_active_lanes(self):
        words = assemble("spin: br spin\n").words
        batch = _batch_run(words, [None] * 3, ways=6,
                           backend="dense", max_steps=10)
        for lane in range(3):
            assert "exceeded 10 steps" in batch.errors[lane]
            assert batch.lanes[lane].machine.traps[-1].cause is \
                TrapCause.WATCHDOG

    def test_events_apply_in_step_order_whatever_the_plan_order(self):
        """A hand-built plan need not be sorted: each event still lands
        after exactly ``event.step`` steps, as ``FaultPlan.due`` does."""
        words = assemble("lex $1, 0\nlex $2, 0\nlex $3, 0\n"
                         "lex $rv, 0\nsys\n").words
        events = (FaultEvent(step=3, target="gpr", index=2, word=0, bit=1),
                  FaultEvent(step=1, target="gpr", index=1, word=0, bit=0))
        plans = [FaultPlan(seed=0, events=events)]
        batch = _batch_run(words, plans, ways=6, backend="dense",
                           max_steps=100)
        sim, error = _serial_run(words, plans[0], ways=6, backend="dense",
                                 max_steps=100)
        _assert_lane_matches(sim, error, batch, 0)
        # $1 was reset by its lex after the flip; $2's flip came after.
        assert int(sim.machine.regs[2]) == 2

    @pytest.mark.parametrize("sim", ["multicycle", "pipelined"])
    def test_timing_model_lanes_match_serial(self, sim):
        """Timing-model lanes loaded away from address 0 match serial
        runs under a ``latch`` or ``pc`` flip at each of the first 40
        steps.  On the pipeline, steps are cycles and a latch flip in
        the in-flight branch moves its target."""
        words = assemble("lex $1, 5\nlex $2, 0\nlex $3, -1\n"
                         "loop: add $2, $1\nadd $1, $3\nbrt $1, loop\n"
                         "lex $rv, 0\nsys\n").words
        plans = [FaultPlan(seed=0, events=(
                     FaultEvent(step, target, index, 0, 6),))
                 for step in range(40)
                 for target, index in (("pc", 0), ("latch", 0),
                                       ("latch", 1), ("latch", 2))]
        kwargs = dict(ways=6, backend="dense", max_steps=200, sim=sim,
                      origin=16)
        batch = _batch_run(words, plans, **kwargs)
        clock = ((lambda s: s.stats.cycles) if sim == "pipelined"
                 else (lambda s: s.cycles))
        for lane, plan in enumerate(plans):
            serial, error = _serial_run(words, plan, **kwargs)
            _assert_lane_matches(serial, error, batch, lane)
            assert clock(serial) == clock(batch.lanes[lane])
        results = {(lane.machine.read_reg(2), error)
                   for lane, error in zip(batch.lanes, batch.errors)}
        assert (15, None) in results and len(results) > 2

    def test_lanes_run_on_the_stripped_loop(self, monkeypatch):
        """No second loop: every segment, the twin's included, is
        ``run_functional``.  The twin runs to lane 1's fault step, then
        on to halt for lane 0; each lane then runs on from its fork."""
        calls = []
        original = fastpath.run_functional

        def counting(sim, max_steps):
            calls.append(sim)
            return original(sim, max_steps)

        monkeypatch.setattr(fastpath, "run_functional", counting)
        plan = FaultPlan(seed=0, events=(
            FaultEvent(step=2, target="gpr", index=5, word=0, bit=0),))
        from repro.apps import fig10_program

        batch = _batch_run(fig10_program().words, [None, plan], ways=8,
                           backend="dense", max_steps=1000)
        twin = calls[0]
        assert twin not in batch.lanes
        assert calls == [twin, twin, batch.lanes[0], batch.lanes[1]]

    def test_lanes_start_from_one_predecoded_image(self):
        from repro.apps import fig10_program

        words = fig10_program().words
        batch = BatchFunctionalSimulator(3, ways=8)
        batch.load(words)
        caches = [fastpath.cache_for(lane.machine).entries
                  for lane in batch.lanes]
        assert sorted(caches[0]) == list(range(len(words)))
        for entries in caches[1:]:
            assert entries is not caches[0]
            assert all(entries[pc] is caches[0][pc] for pc in caches[0])


# ---------------------------------------------------------------------------
# RE lanes: one shared chunk store, gates memoized by operand identity
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


def _qat(batch, lane):
    return batch.lanes[lane].machine.qat


class TestBatchREQat:
    """RE lanes: one :class:`~repro.cpu.qat_backend.SharedREStore`."""

    def test_lanes_share_one_chunk_store(self):
        from repro.apps import fig10_program

        batch = _batch_run(fig10_program().words, [None] * 4, ways=8,
                           backend="re", max_steps=1000)
        store = _qat(batch, 0).store
        assert all(vector.store is store
                   for lane in range(4) for vector in _qat(batch, lane).regs)
        # Lanes that never diverged hold the very same result objects.
        assert all(a is b for a, b in zip(_qat(batch, 0).regs,
                                          _qat(batch, 3).regs))

    def test_memo_holds_the_operands_it_keys_on(self):
        """No ``id`` in a memo key can be recycled while the batch lives."""
        plans = [None, _qreg_flip(3, 1, 1, 7), None]
        batch = _batch_run(_RE_READOUT, plans, ways=8, backend="re",
                           max_steps=100)
        memo = _qat(batch, 0)._memo
        assert memo and all(_qat(batch, lane)._memo is memo
                            for lane in range(3))
        for (op, *rest), (operands, _) in memo.items():
            # ``had`` keys on its ``k`` by value; every other op on the
            # identity of the vectors it was handed.
            expected = operands if op == "had" else map(id, operands)
            assert rest == list(expected)

    def test_serial_machines_own_private_stores(self):
        a, b = (FunctionalSimulator(ways=8, qat_backend="re")
                for _ in range(2))
        assert a.machine.qat.store is not b.machine.qat.store
        assert a.machine.qat._memo is None

    def test_flip_in_one_lane_leaves_the_others_unfaulted(self):
        plans = [None, _qreg_flip(3, 1, 1, 7), None, None]
        batch = _batch_run(_RE_READOUT, plans, ways=8, backend="re",
                           max_steps=100)
        clean, _ = _serial_run(_RE_READOUT, None, ways=8, backend="re",
                               max_steps=100)
        expected = [clean.machine.read_qreg(i) for i in range(256)]
        for lane in (0, 2, 3):
            assert [batch.lanes[lane].machine.read_qreg(i)
                    for i in range(256)] == expected
        assert [batch.lanes[1].machine.read_qreg(i)
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
        regs = [lane.machine.regs for lane in batch.lanes]
        diverged = [lane for lane in range(len(plans))
                    if regs[lane] != regs[0]]
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

    @pytest.mark.parametrize("sim", ["multicycle", "pipelined"])
    def test_batch_runs_the_timing_models(self, sim, capsys):
        from repro.cli import main

        def report(*extra):
            assert main(["faults", "--sim", sim, "--runs", "9",
                         "--targets", "gpr,mem,qreg,pc,latch",
                         "--no-ledger", *extra]) == 0
            return capsys.readouterr().out

        serial = report()
        assert f'"sim": "{sim}"' in serial
        assert report("--batch", "4") == serial

    @pytest.mark.parametrize("fanout", [{}, {"batch": 7}, {"jobs": 2}],
                             ids=["serial", "batch7", "jobs2"])
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sim", ["functional", "multicycle", "pipelined"])
    def test_report_matches_golden(self, sim, backend, fanout):
        """Every engine, backend and fan-out reproduces the committed report.

        The files under ``tests/data/campaigns`` are ``tangled faults``
        output for :data:`GOLDEN_ARGS` and hold the reports fixed while
        the execution strategy behind them changes.
        """
        golden = GOLDEN / f"fig10-{sim}-{backend}.json"
        report = run_campaign(sim=sim, qat_backend=backend, **GOLDEN_ARGS,
                              **fanout)
        assert render_report(report).encode() == golden.read_bytes()

    def test_batch_and_jobs_mutually_exclusive(self):
        with pytest.raises(ReproError, match="mutually exclusive"):
            run_campaign(runs=2, batch=2, jobs=2)

    def test_batch_must_be_positive(self):
        with pytest.raises(ReproError, match="positive"):
            run_campaign(runs=2, batch=0)
