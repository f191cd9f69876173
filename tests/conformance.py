"""One conformance harness for every execution engine.

Paper section 3.1 implements one ISA (Tables 1 and 3) several ways, and
this package adds a stripped and an observed run loop, batch lanes and
two Qat substrates.  All of them are checked the same way:
:func:`programs` is the one random-program strategy, :func:`oracle` the
one reference (a ``FunctionalSimulator.step()`` loop, i.e. ``execute``
over ``FAST_HANDLERS``), and :func:`check` runs every engine in
:data:`ENGINES` on both Qat backends under the raise, halt and vector
trap policies against it.  The ``.hot`` engines and the batch lanes run
with :func:`every_leader_hot`, so the stripped loops' translated blocks
run from their first visit; at the real threshold few blocks of a
:data:`MAX_STEPS` run would get hot.  Pipelined timing has a second
reference: each configuration's ``run()``, plain and ``.hot``, must
match its ``cycle()``-driven loop field by field -- ``PipelineStats``,
trap clocks and the flight stream.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from hypothesis import strategies as st

from repro import obs
from repro.asm import assemble
from repro.cpu import (BatchFunctionalSimulator, FunctionalSimulator,
                       MultiCycleSimulator, PipelineConfig,
                       PipelinedSimulator, SyscallHandler, fastpath)
from repro.errors import SimulatorError
from repro.faults.traps import TrapCause, TrapDelivered, TrapPolicy
from repro.isa import INSTRUCTIONS, Instr, encode
from repro.isa.registers import RV
from repro.obs import flight

MEM_WORDS = 1 << 16
BACKENDS = ("dense", "re")
#: Step budget of every run; the pipeline gets ten cycles per step.
MAX_STEPS = 400
MAX_CYCLES = 10 * MAX_STEPS
#: The vector-policy handler, the last word of every image: resume
#: after the trapped instruction (the trap put that address in $14).
HANDLER_STUB = tuple(encode(Instr("jumpr", (14,))))
#: ``lex $3, 2`` patched to ``lex $3, 42`` by :func:`store_ahead`.
PATCH = encode(Instr("lex", (3, 42)))[0]
#: Rewrites word 0, already executed, then carries on (``$3 = 9``).
STORE_AT_ZERO = "lex $0, 0\nlex $1, 0\nstore $0, $1\nlex $3, 9\nlex $rv, 0\nsys\n"
#: Blocks entered by falling through a stalled, untaken branch: a RAW
#: stall without forwarding, then a 5-stage load-use stall.  Each next
#: block starts with a two-word fetch that began two cycles before the
#: branch's EX cycle, where a block's timing table clips its fetch term.
STALLED_FALL_THROUGH = """\
loadi $1, 0x4000
lex $2, 1
brf $2, out
and @1, @2, @3
load $2, $1
brt $2, out
and @1, @2, @3
out:
lex $rv, 0
sys
"""


def store_ahead(gap: int) -> str:
    """A store patching the instruction ``gap`` instructions after it."""
    filler = "lex $4, 0\n" * gap
    return (f"lex $0, {PATCH & 0xFF}\nlhi $0, {PATCH >> 8}\nlex $1, target\n"
            f"store $0, $1\n{filler}target:\nlex $3, 2\nlex $rv, 0\nsys\n")


@dataclass(frozen=True)
class Program:
    """One conformance input: memory images plus the machine knobs."""

    words: tuple  #: image at address 0; its last word is the handler
    top: tuple = ()  #: image ending at 0xFFFF
    ways: int = 6
    trap_bf16: bool = False
    strict_qat: bool = False
    mem_fence: int | None = None

    @classmethod
    def from_asm(cls, source: str, **knobs) -> "Program":
        return cls(tuple(assemble(source).words) + HANDLER_STUB, **knobs)

    def load(self, sim) -> None:
        if self.top:
            sim.load(self.top, origin=MEM_WORDS - len(self.top))
        sim.load(self.words)

    def policies(self) -> dict:
        knobs = dict(trap_bf16=self.trap_bf16, strict_qat=self.strict_qat,
                     mem_fence=self.mem_fence)
        return {"raise": TrapPolicy(**knobs),
                "halt": TrapPolicy.halting(**knobs),
                "vector": TrapPolicy.vectored(len(self.words) - 1, **knobs)}


# -- the one program strategy ------------------------------------------------
#
# An item is a list of pieces: an Instr, a raw word, or a one-word
# ``piece(here, starts) -> Instr`` resolved once every item's start
# address is known (``starts[n]`` is the epilogue).

#: Reserved registers: the return address of a trip over the top of
#: memory, then a counted loop's counter and its decrement.
RET, LOOP, TEMP = 11, 15, 13
#: Address 0 returns from a trip over the top of memory (``$11 != 0``).
PROLOGUE = (Instr("brf", (RET, 1)), Instr("jumpr", (RET,)))
EPILOGUE = (Instr("lex", (RV, 0)), Instr("sys", ()))
TOP_START = MEM_WORDS - 2
GPR = st.integers(0, 5)
QREG = st.one_of(st.integers(0, 7), st.just(255))
#: +inf, -inf, quiet NaN, NaN, max finite, smallest subnormal, -0.
BF16_SPECIALS = st.sampled_from(
    (0x7F80, 0xFF80, 0x7FC0, 0xFFC1, 0x7F7F, 0x0001, 0x8000))
#: A 16-bit value, half the time an integer corner: 0, 1, the largest
#: and the most negative signed value, -1.
WORDS = st.one_of(st.sampled_from((0, 1, 0x7FFF, 0x8000, 0xFFFF)),
                  st.integers(0, 0xFFFF))
#: A shift amount, half the time at an edge: +-15 keeps one bit, +-16
#: shifts every bit out.
SHIFTS = st.one_of(st.sampled_from((15, 16, 0xFFF1, 0xFFF0)), WORDS)
#: The two-register integer ops whose result has corners: wrap-around,
#: sign and shift edges.
ALU_CORNER_OPS = ("add", "mul", "shift", "slt")
#: Where an ``alu`` item keeps its results; no other item writes them,
#: so a wrong result reaches the final state.
ALU_RESULTS = range(6, 6 + len(ALU_CORNER_OPS))
OPS = tuple(m for m in INSTRUCTIONS if m not in ("brf", "brt", "jumpr", "sys"))
ILLEGAL = st.integers(0, 0xFFFF).filter(
    lambda word: fastpath._predecode([word, 0], 0).error is not None)


def _const(reg, value):
    """``lex``+``lhi`` of ``value``, or of ``value(starts)`` once laid out."""
    at = value if callable(value) else (lambda starts: value)
    return [lambda here, starts: Instr("lex", (reg, at(starts) & 0xFF)),
            lambda here, starts: Instr("lhi", (reg, at(starts) >> 8))]


def _op(draw, ways, words=(1, 2)) -> Instr:
    m = draw(st.sampled_from([m for m in OPS if INSTRUCTIONS[m].words in words]))
    fields = {"d": GPR, "s": GPR, "i": st.integers(0, 255), "A": QREG,
              "B": QREG, "C": QREG, "k": st.integers(0, min(15, ways + 1))}
    return Instr(m, tuple(draw(fields[f]) for f in INSTRUCTIONS[m].operands))


def _item(draw, i, n, ways) -> list:
    kind = draw(st.sampled_from(
        ("op", "op", "op", "op", "const", "alu", "alu", "bf16", "branch",
         "loop", "jump", "sys", "store_next", "store_fixed", "top",
         "illegal")))
    ahead = min(i + 1 + draw(st.integers(1, 3)), n)
    a, v = draw(st.lists(GPR, min_size=2, max_size=2, unique=True))
    if kind == "op":
        return [_op(draw, ways)]
    if kind == "const":
        return _const(a, draw(WORDS))
    if kind == "alu":  # integer ops on a corner pair, each on a copy
        x = draw(WORDS)
        # Half the time the same value with the other sign, or a shift edge.
        y = x ^ 0x8000 if draw(st.booleans()) else draw(SHIFTS)
        ops = draw(st.lists(st.sampled_from(ALU_CORNER_OPS), min_size=1,
                            max_size=len(ALU_CORNER_OPS), unique=True))
        return _const(a, x) + _const(v, y) + [
            p for t, m in zip(ALU_RESULTS, ops)
            for p in (Instr("copy", (t, a)), Instr(m, (t, v)))]
    if kind == "bf16":  # non-finite operands, trapped or not per trap_bf16
        m = draw(st.sampled_from(("addf", "mulf", "recip", "negf", "int")))
        return (_const(a, draw(BF16_SPECIALS)) + _const(v, draw(BF16_SPECIALS))
                + [Instr(m, (a, v)[:len(INSTRUCTIONS[m].operands)])])
    if kind == "branch":  # forward, over the next 1-3 items
        m = draw(st.sampled_from(("brf", "brt")))
        return [lambda here, starts: Instr(m, (a, starts[ahead] - here - 1))]
    if kind == "loop":  # backward: 1-3 trips round a one-op body
        return [Instr("lex", (LOOP, draw(st.integers(1, 3)))), _op(draw, ways),
                Instr("lex", (TEMP, -1)), Instr("add", (LOOP, TEMP)),
                lambda here, starts: Instr("brt", (LOOP, starts[i] - here))]
    if kind == "jump":
        return _const(a, lambda starts: starts[ahead]) + [Instr("jumpr", (a,))]
    if kind == "sys":  # service 3 reads a clock every engine leaves at 0
        return [Instr("lex", (RV, draw(st.sampled_from((0, 1, 2, 3, 4, 9))))),
                Instr("sys", ())]
    if kind == "top":  # run the top-of-memory image, wrap to 0, come back
        return (_const(RET, lambda starts: starts[i + 1])
                + _const(a, TOP_START) + [Instr("jumpr", (a,))])
    if kind == "illegal":
        return [draw(ILLEGAL)]
    value = draw(ILLEGAL) if draw(st.booleans()) else encode(_op(draw, ways))[0]
    if kind == "store_next":  # rewrite the very next instruction
        return (_const(a, lambda starts: starts[i] + 5) + _const(v, value)
                + [Instr("store", (v, a)), _op(draw, ways)])
    # The last word run before this item, or either end of memory.
    addr = draw(st.sampled_from((0, MEM_WORDS - 2, MEM_WORDS - 1,
                                 lambda starts: starts[i] - 1)))
    return _const(a, addr) + _const(v, value) + [Instr("store", (v, a))]


@st.composite
def programs(draw, max_items: int = 24) -> Program:
    """Random programs over the whole ISA; runaways hit the watchdog."""
    ways = draw(st.sampled_from((6, 8)))
    n = draw(st.integers(1, max_items))
    # Every register GPR draws starts at a corner-biased value.
    init = [p for reg in range(6) for p in _const(reg, draw(WORDS))]
    items = [_item(draw, i, n, ways) for i in range(n)]
    starts = [len(PROLOGUE) + len(init)]
    for item in items:
        starts.append(starts[-1] + sum(
            INSTRUCTIONS[p.mnemonic].words if isinstance(p, Instr) else 1
            for p in item))
    words = []
    for piece in [*PROLOGUE, *init, *(p for item in items for p in item),
                  *EPILOGUE]:
        if callable(piece):
            piece = piece(len(words), starts)
        words.extend(encode(piece) if isinstance(piece, Instr) else [piece])
    # A two-word Qat instruction filling 0xFFFE-0xFFFF, or cut off there.
    top = tuple(encode(_op(draw, ways, words=(2,))))
    if draw(st.booleans()):
        top = (encode(_op(draw, ways, words=(1,)))[0], top[0])
    return Program(tuple(words) + HANDLER_STUB, top, ways,
                   trap_bf16=draw(st.booleans()),
                   strict_qat=draw(st.booleans()),
                   mem_fence=draw(st.sampled_from((None, TOP_START))))


# -- the oracle and the engine registry ----------------------------------------

def _state(machine, error, events) -> dict:
    """Everything an engine must agree on; trap clocks are per engine."""
    for pc, entry in fastpath.cache_for(machine).entries.items():
        assert entry is fastpath._predecode(machine.mem, pc), f"stale {pc:#x}"
    return {
        "regs": tuple(int(r) for r in machine.regs), "mem": bytes(machine.mem),
        "pc": int(machine.pc), "halted": bool(machine.halted),
        "output": list(machine.output), "instret": int(machine.instret),
        "qregs": b"".join(machine.read_qreg(q).words.tobytes()
                          for q in range(256)),
        "traps": [{**t.as_dict(), "cycle": None} for t in machine.traps],
        "error": error and re.sub(r", cycle=\d+", "", error),
        "events": [  # the flight-recorder stream, trap clocks dropped
            (kind, pc, (p[0], None) + p[2:] if kind == flight.TRAP else p)
            for kind, pc, p in events],
    }


def _step_loop(sim) -> None:
    """``run()``'s observed loop, driven one ``step()`` at a time."""
    machine, steps = sim.machine, 0
    while not machine.halted:
        if steps >= MAX_STEPS:
            try:
                machine.trap(TrapCause.WATCHDOG, detail=f"exceeded {MAX_STEPS}"
                             " steps without halting")
            except TrapDelivered:
                break
        sim.step()
        steps += 1


def _pipeline_run(sim, max_cycles=MAX_CYCLES) -> None:
    sim.run(max_cycles)


def _cycle_loop(sim, max_cycles=MAX_CYCLES) -> None:
    """``PipelinedSimulator.run()``'s cycle-stepped loop, one ``cycle()``
    at a time (``run()`` itself takes the stripped loop here)."""
    machine = sim.machine
    try:
        while not machine.halted:
            if sim.stats.cycles >= max_cycles:
                try:
                    machine.trap(TrapCause.WATCHDOG, detail=f"exceeded "
                                 f"{max_cycles} cycles without halting")
                except TrapDelivered:
                    break
            sim.cycle()
    finally:
        sim.stats.retired = machine.instret


def _run_to_halt(sim) -> None:
    sim.run(MAX_STEPS)


@contextmanager
def every_leader_hot():
    """Translate every block the stripped loop reaches, on its first visit."""
    saved, fastpath.HOT_THRESHOLD = fastpath.HOT_THRESHOLD, 1
    try:
        yield
    finally:
        fastpath.HOT_THRESHOLD = saved


def _hot(sim) -> None:
    with every_leader_hot():
        sim.run(MAX_STEPS)


def _hot_pipeline_run(sim, max_cycles=MAX_CYCLES) -> None:
    with every_leader_hot():
        sim.run(max_cycles)


def _observed(sim) -> None:
    with obs.capture():
        sim.run(MAX_STEPS)


def _run(make, drive, program, backend, policy) -> list:
    """Run one engine; returns one state per simulated machine."""
    sim = make(ways=program.ways, qat_backend=backend, trap_policy=policy)
    program.load(sim)
    flight.RECORDER.reset()
    error = None
    try:
        drive(sim)
    except SimulatorError as exc:
        error = str(exc)
    events = list(flight.RECORDER.events)
    if isinstance(sim, BatchFunctionalSimulator):
        # Lanes run one after another, each recording its own stream.
        size = len(events) // sim.n
        assert events == events[:size] * sim.n, "lane streams differ"
        return [_machine_state(lane, lane_error, events[:size])
                for lane, lane_error in zip(sim.lanes, sim.errors)]
    state = _machine_state(sim, error, events)
    machine = sim.machine
    if isinstance(sim, PipelinedSimulator):
        state["timing"] = (sim.stats.as_dict(),
                           [t.as_dict() for t in machine.traps],
                           list(flight.RECORDER.events))
    return [state]


def _machine_state(sim, error, events) -> dict:
    state = _state(sim.machine, error, events)
    if isinstance(sim, MultiCycleSimulator):
        state["cycles"] = sim.cycles
    return state


def oracle(program, policy) -> dict:
    return _run(FunctionalSimulator, _step_loop, program, "dense", policy)[0]


#: Every pipeline configuration, by engine-name stem.
PIPELINES = {
    f"pipelined.{c.stages}{'fwd' if c.forwarding else 'nofwd'}"
    f"{'' if c.second_qat_write_port else '.1port'}": c
    for c in (PipelineConfig(stages, fwd, port) for stages in (4, 5)
              for fwd in (True, False) for port in (True, False))}

#: How each pipeline configuration is driven, by engine-name suffix:
#: ``run()``, its translated blocks from their first visit, and the
#: cycle-stepped reference.
PIPELINE_LOOPS = {"": _pipeline_run, ".hot": _hot_pipeline_run,
                  ".cycle": _cycle_loop}

#: name -> (simulator factory, driver).  Pipelines' watchdogs count
#: cycles, so they are only held to the oracle while its step watchdog
#: stays quiet; ``<stem>`` and ``<stem>.hot`` are always held to
#: ``<stem>.cycle``.
ENGINES = {
    "functional.run": (FunctionalSimulator, _run_to_halt),
    "functional.observed": (FunctionalSimulator, _observed),
    "functional.hot": (FunctionalSimulator, _hot),
    "multicycle.step": (MultiCycleSimulator, _step_loop),
    "multicycle.run": (MultiCycleSimulator, _run_to_halt),
    "multicycle.hot": (MultiCycleSimulator, _hot),
    **{f"{stem}{suffix}": (
           partial(PipelinedSimulator, config=c, syscalls=SyscallHandler()),
           drive)
       for stem, c in PIPELINES.items()
       for suffix, drive in PIPELINE_LOOPS.items()},
    "batch.3lanes": (partial(BatchFunctionalSimulator, 3), _hot),
    "batch.multicycle": (partial(BatchFunctionalSimulator, 3,
                                 sim="multicycle"), _hot),
}


def run_engine(name, program, backend, policy) -> list:
    return _run(*ENGINES[name], program, backend, policy)


def pipeline_timing(stem, program, policy, max_cycles) -> tuple:
    """``(run(), cycle())`` timing of one pipeline at a cycle budget:
    ``PipelineStats``, trap records with their cycles, flight stream."""
    make = ENGINES[stem][0]
    return tuple(_run(make, partial(drive, max_cycles=max_cycles), program,
                      "dense", policy)[0]["timing"]
                 for drive in (_pipeline_run, _cycle_loop))


def check(program: Program) -> None:
    """Every engine, backend and trap policy must match the oracle."""
    recorder = flight.RECORDER
    enabled, recorder.enabled = recorder.enabled, True
    try:
        for policy_name, policy in program.policies().items():
            expected = oracle(program, policy)
            watchdog = any(t["cause"] == TrapCause.WATCHDOG.value
                           for t in expected["traps"])
            for backend in BACKENDS:
                cycles = set()  # the multicycle loops must agree
                timing = {}  # and each pipeline's loops with cycle()
                for name in ENGINES:
                    for got in run_engine(name, program, backend, policy):
                        if "cycles" in got:
                            cycles.add(got.pop("cycles"))
                        if "timing" in got:
                            timing[name] = got.pop("timing")
                            if watchdog:
                                continue
                        for key in got:
                            assert got[key] == expected[key], (
                                f"{name}/{backend}/{policy_name}: {key}")
                assert len(cycles) == 1, f"multicycle cycles {cycles}"
                for stem in PIPELINES:
                    stepped = timing[f"{stem}.cycle"]
                    for loop in ("", ".hot"):
                        for part, a, b in zip(("stats", "traps", "events"),
                                              timing[stem + loop], stepped):
                            assert a == b, (
                                f"{stem}{loop}/{backend}/{policy_name}: "
                                f"run() vs cycle() {part}")
    finally:
        recorder.enabled = enabled
        recorder.reset()
