"""Forked batch lanes: every lane equals a full replay of its plan.

A batch of two or more unobserved functional or multi-cycle lanes runs
the shared fault-free prefix once, in a twin, and seeds each lane with
the twin's state at the lane's first fault step
(:mod:`repro.cpu.batch`).  A 1-lane batch never forks: it replays the
prefix.  So each lane of a forked batch must end exactly like a 1-lane
batch run of the same plan -- registers, memory, Qat registers, trap
records, output, ``instret``, the multi-cycle clock, its step count and
its error -- and the flight ring must hold the 1-lane runs' streams one
after another.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import BatchFunctionalSimulator
from repro.faults.inject import FaultEvent, FaultPlan
from repro.faults.traps import TrapPolicy
from repro.obs import flight

from tests.conformance import MEM_WORDS, PATCH, Program, programs

BACKENDS = ("dense", "re")
SIMS = ("functional", "multicycle")
MAX_STEPS = 400


def _run(program, plans, *, sim, backend, policy):
    """``(batch, steps, ring)`` of one batch run under a fresh recorder."""
    saved = flight.RECORDER
    flight.RECORDER = flight.FlightRecorder(capacity=1 << 20)
    try:
        batch = BatchFunctionalSimulator(len(plans), program.ways,
                                         trap_policy=policy,
                                         qat_backend=backend, sim=sim)
        program.load(batch)
        steps = batch.run(MAX_STEPS, plans=plans)
        return batch, steps, list(flight.RECORDER.events)
    finally:
        flight.RECORDER = saved


def _lane(batch, steps, lane) -> dict:
    sim = batch.lanes[lane]
    machine = sim.machine
    return {
        "regs": list(machine.regs), "mem": bytes(machine.mem),
        "qregs": [machine.read_qreg(q) for q in range(256)],
        "traps": [t.as_dict() for t in machine.traps],
        "output": list(machine.output), "pc": machine.pc,
        "instret": machine.instret, "halted": machine.halted,
        "cycles": getattr(sim, "cycles", None),
        "steps": steps[lane], "error": batch.errors[lane],
    }


def assert_forks_match_replays(program, plans, **kwargs) -> list:
    """Each lane of one batch against a 1-lane batch of its plan; returns
    the replays' states."""
    batch, steps, ring = _run(program, plans, **kwargs)
    expected, stream = [], []
    for plan in plans:
        single, single_steps, single_ring = _run(program, [plan], **kwargs)
        expected.append(_lane(single, single_steps, 0))
        stream += single_ring
    assert [_lane(batch, steps, lane) for lane in range(len(plans))] == \
        expected
    assert ring == stream
    return expected


def _event(draw, step, ways, words: int) -> FaultEvent:
    target = draw(st.sampled_from(("gpr", "mem", "mem", "qreg", "pc")))
    if target == "gpr":
        return FaultEvent(step, target, draw(st.integers(0, 15)), 0,
                          draw(st.integers(0, 15)))
    if target == "mem":  # mostly program text, else the top image
        index = draw(st.one_of(st.integers(0, words - 1),
                               st.integers(MEM_WORDS - 2, MEM_WORDS - 1)))
        return FaultEvent(step, target, index, 0, draw(st.integers(0, 15)))
    if target == "qreg":
        return FaultEvent(step, target,
                          draw(st.one_of(st.integers(0, 7), st.just(255))),
                          draw(st.integers(0, (1 << ways) // 64 - 1)),
                          draw(st.integers(0, 63)))
    return FaultEvent(step, target, 0, 0, draw(st.integers(0, 15)))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sim", SIMS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_forked_lanes_match_full_replays(sim, backend, data):
    """Random programs (stores over their own text, traps, syscalls,
    trips over the top of memory) under every trap policy, with 2-3
    events per plan at steps from 0 to past the golden run's end."""
    program = data.draw(programs(max_items=16))
    policy_name = data.draw(st.sampled_from(("raise", "halt", "vector")))
    kwargs = dict(sim=sim, backend=backend,
                  policy=program.policies()[policy_name])
    golden = _run(program, [None], **kwargs)[1][0]
    steps = st.one_of(st.just(0), st.integers(0, golden + 2),
                      st.just(golden), st.integers(golden, MAX_STEPS + 2))
    plans = [None] + [
        FaultPlan(seed=0, events=tuple(
            _event(data.draw, data.draw(steps), program.ways,
                   len(program.words))
            for _ in range(data.draw(st.integers(2, 3)))))
        for _ in range(data.draw(st.integers(2, 4)))]
    assert_forks_match_replays(program, plans, **kwargs)


#: A prefix that stores over its own text: the second store rewrites
#: ``lex $3, 2`` (at ``target``) with ``lex $3, 42`` before it runs; the
#: first leaves 42 in data word 0x30.
_STORING = f"""\
        lex $0, 42
        lex $1, target
        lex $2, {PATCH & 0xFF}
        lhi $2, {PATCH >> 8}
        lex $4, 0x30
        store $0, $4
        had @1, 2
        store $2, $1
        lex $5, 1
        and @3, @1, @1
target: lex $3, 2
        xor @2, @1, @3
        copy $0, $3
        lex $rv, 1
        sys
        lex $rv, 0
        sys
"""


def _plans(first_steps, event=("gpr", 3, 0, 1)) -> list:
    target, index, word, bit = event
    return [FaultPlan(seed=0, events=(
                FaultEvent(step, target, index, word, bit),
                FaultEvent(step + 3, "gpr", 0, 0, 2)))
            for step in first_steps]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("sim", SIMS)
def test_prefix_stores_reach_the_forked_lanes(sim, backend):
    program = Program.from_asm(_STORING)
    expected = assert_forks_match_replays(
        program, _plans([0, 5, 6, 9, 12, 16, 17, 40]) + [None],
        sim=sim, backend=backend, policy=TrapPolicy())
    # The unfaulted lane printed the patched value; each lane carries
    # the stored data word.
    assert expected[-1]["output"] == ["42"]
    assert all(state["mem"][0x60:0x62] == (42).to_bytes(2, "little")
               for state in expected[2:])


#: An illegal word two steps in, then a clean tail.
_TRAPPING = Program.from_asm("lex $1, 1\nlex $2, 2\n.word 0x6000\n"
                             "lex $3, 3\nlex $rv, 1\ncopy $0, $3\nsys\n"
                             "lex $rv, 0\nsys\n")


@pytest.mark.parametrize("policy", ["halt", "vector"])
@pytest.mark.parametrize("sim", SIMS)
def test_prefix_traps_reach_the_forked_lanes(sim, policy):
    program = _TRAPPING
    expected = assert_forks_match_replays(
        program, _plans([1, 2, 3, 4, 6, 9]), sim=sim, backend="dense",
        policy=program.policies()[policy])
    assert all(state["traps"][0]["cause"] == "illegal_opcode"
               for state in expected[2:])


@pytest.mark.parametrize("sim", SIMS)
def test_twin_that_raises_leaves_later_lanes_to_replay(sim, monkeypatch):
    """Under ``raise`` the twin dies at step 2: lanes that fork before
    it are seeded, the lanes after it replay their prefix and raise."""
    forks = {}
    original = BatchFunctionalSimulator.run_lane

    def run_lane(self, lane, *args):
        if self.n > 1:
            forks[lane] = args[-1]
        return original(self, lane, *args)

    monkeypatch.setattr(BatchFunctionalSimulator, "run_lane", run_lane)
    expected = assert_forks_match_replays(
        _TRAPPING, _plans([1, 2, 3, 5]), sim=sim, backend="dense",
        policy=TrapPolicy())
    assert [forks[lane] is not None for lane in range(4)] == \
        [True, True, False, False]
    assert all("unassigned major opcode" in state["error"]
               for state in expected)


@pytest.mark.parametrize("sim", SIMS)
def test_lanes_past_the_golden_end_fork_from_the_halted_twin(sim):
    """First steps at and beyond the golden run's last step, and past the
    step budget, on a program that runs into the watchdog."""
    halting = Program.from_asm("lex $0, 7\nlex $rv, 1\nsys\n"
                               "lex $rv, 0\nsys\n")
    assert_forks_match_replays(halting, _plans([4, 5, 9, MAX_STEPS + 1]),
                               sim=sim, backend="re", policy=TrapPolicy())
    spinning = Program.from_asm("spin: lex $0, 1\nbr spin\n")
    expected = assert_forks_match_replays(
        spinning, _plans([0, 7, MAX_STEPS - 1, MAX_STEPS]) + [None],
        sim=sim, backend="dense", policy=TrapPolicy.halting())
    assert all(state["traps"][-1]["cause"] == "watchdog"
               for state in expected)


@pytest.mark.parametrize("capacity", [3, 40])
def test_small_ring_snapshots_match_serial(capacity, monkeypatch):
    """Trims that fall inside a forked lane's prefix leave the ring's
    tail and its event count as a full replay leaves them."""
    from repro.faults.campaign import run_campaign

    snapshots = []
    for batch in (1, 6):
        recorder = flight.FlightRecorder(capacity=capacity)
        monkeypatch.setattr(flight, "RECORDER", recorder)
        run_campaign(program="fig10", runs=6, seed=5, faults_per_run=2,
                     targets=("gpr", "mem", "qreg", "pc"), batch=batch)
        snapshots.append(recorder.snapshot(context={"ways": 8}))
    assert snapshots[0] == snapshots[1]
    assert snapshots[0]["events_dropped"] > 0
