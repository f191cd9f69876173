"""Predecode cache and the stripped run loop.

The ISA semantics live in one table, :data:`repro.cpu.exec_core.FAST_HANDLERS`,
and two loops run it.  :func:`repro.cpu.exec_core.execute` is the
observed step: it wraps each handler in the flight-recorder and
telemetry hooks and returns an ``Effects`` record for timing models,
tracers, and profilers.  This module holds the other loop, stripped of
everything an unobserved run does not need:

- **Predecode cache** (:class:`PredecodeCache`): each program word is
  decoded once into a :class:`Predecoded` entry carrying the
  instruction, its handler, and its
  :class:`~repro.cpu.exec_core.StaticEffects`.  Decoded entries are pure
  functions of their bit patterns, so they are interned process-wide
  and shared by all three simulators.  Stores invalidate precisely
  (``MachineState.write_mem`` drops the entry at the written address
  plus a two-word entry starting one word earlier), so self-modifying
  code simply re-decodes the rewritten words.
- **Stripped run loop** (:func:`run_functional`): no span enter/exit,
  no per-step ``Effects`` allocation, locals-bound state, and handler
  dispatch through the predecoded table.  Given a
  :class:`~repro.cpu.multicycle.CycleCosts` it also charges the
  multi-cycle model's cycles, so it serves both untimed and multi-cycle
  simulators.  It stops at a step count and leaves the watchdog to its
  callers, so the lanes of a batch (:mod:`repro.cpu.batch`) run it in
  segments, with their fault events applied in between.
- **Selection** (:func:`eligible`): a stripped loop is only taken
  when telemetry capture, tracing, auto-checkpointing, and profiling
  are all inactive; any observer keeps the observed loop.  The
  pipelined simulator's stripped loop lives in
  :mod:`repro.cpu.pipeline`: it runs the same handlers but also times
  each instruction, which this loop must not pay for.  The flight
  recorder (:mod:`repro.obs.flight`) is *not* an observer in this
  sense: its retire append is cheap enough to stay inside the stripped
  loop, so it never costs eligibility.

Both loops call the same handlers, so traps raise through the same
:func:`repro.faults.traps.deliver` machinery with the same causes and
detail strings; ``tests/test_conformance.py`` holds both loops, and
every other engine, to one reference on random programs.
"""

from __future__ import annotations

from repro.cpu.exec_core import FAST_HANDLERS, static_effects
from repro.errors import EncodingError
from repro.faults.traps import TrapCause, TrapDelivered
from repro.isa.encoding import decode
from repro.obs import flight as _flight
from repro.obs import runtime as _obs

#: Major opcodes of two-word (Qat multi-register) instructions.
_TWO_WORD_MAJORS = (0x8, 0x9)

_MEM_WORDS = 1 << 16


class Predecoded:
    """One decoded program word (or decode error), ready to dispatch."""

    __slots__ = ("instr", "ops", "mnemonic", "words", "handler", "static",
                 "raw", "error", "timing")

    def __init__(self, instr, words, handler, static, raw=(), error=None):
        self.instr = instr
        self.ops = instr.ops if instr is not None else ()
        self.mnemonic = instr.mnemonic if instr is not None else None
        self.words = words
        self.handler = handler
        self.static = static
        #: the raw instruction word(s) as a tuple -- interned alongside
        #: the entry so the flight recorder's retire events never fetch
        #: or allocate on the hot path
        self.raw = raw
        #: the EncodingError text when the word(s) do not decode
        self.error = error
        #: per-configuration scoreboard timing, memoized by the pipeline's
        #: stripped loop (:func:`repro.cpu.pipeline._timing`)
        self.timing = None


#: Process-wide intern table: word (or ``(word1, word2)``) -> entry.
#: Decode -- including every EncodingError message -- is a pure function
#: of the fetched bit patterns, so entries are safely shared across
#: machines, simulators, and repeated loads of the same program.
_INTERN: dict = {}


def _predecode(mem, pc: int) -> Predecoded:
    """Decode (or fetch from the intern table) the word(s) at ``pc``."""
    word = int(mem[pc])
    if (word >> 12) in _TWO_WORD_MAJORS and pc + 1 < _MEM_WORDS:
        key = (word, int(mem[pc + 1]))
    else:
        key = word
    entry = _INTERN.get(key)
    if entry is None:
        raw = key if isinstance(key, tuple) else (key,)
        try:
            instr, words = decode(mem, pc)
        except EncodingError as exc:
            entry = Predecoded(None, 1, None, None, raw=raw[:1],
                               error=str(exc))
        else:
            entry = Predecoded(instr, words, FAST_HANDLERS[instr.mnemonic],
                               static_effects(instr), raw=raw[:words])
        _INTERN[key] = entry
    return entry


class PredecodeCache:
    """Per-machine ``pc -> Predecoded`` map with precise invalidation."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: dict[int, Predecoded] = {}

    def lookup(self, mem, pc: int) -> Predecoded:
        entry = self.entries.get(pc)
        if entry is None:
            entry = self.entries[pc] = _predecode(mem, pc)
        return entry

    def invalidate(self, addr: int) -> None:
        """Drop entries covering ``addr`` after a store there.

        An instruction is at most two words long, so only the entry at
        ``addr`` itself and a two-word entry starting at ``addr - 1``
        can have consumed the written word.  A store at address 0 has no
        predecessor: probing ``addr - 1`` must not wrap to the top of
        memory (a two-word entry at ``_MEM_WORDS - 1`` cannot exist --
        its second word would be off the end -- but the wrapped probe
        used to evict whatever entry lived there).
        """
        entries = self.entries
        entries.pop(addr, None)
        if addr == 0:
            return
        prev = addr - 1
        before = entries.get(prev)
        if before is not None and before.words == 2:
            del entries[prev]

    def invalidate_all(self) -> None:
        self.entries.clear()


def cache_for(machine) -> PredecodeCache:
    """The machine's predecode cache."""
    return machine._predecode


def eligible(sim) -> bool:
    """Should ``sim.run()`` take a stripped loop right now?

    Only when *no* observer -- telemetry capture, an execution trace, an
    auto-checkpointer, or a profiler -- is attached to the simulator (or,
    for the multi-cycle model, its inner functional simulator).  The
    functional and multi-cycle simulators then run :func:`run_functional`;
    the pipelined simulator runs its own stripped loop, and only from a
    freshly loaded pipeline (``PipelinedSimulator.run``).
    """
    if _obs.active:
        return False
    inner = getattr(sim, "_inner", None)
    for owner in (sim,) if inner is None else (sim, inner):
        if getattr(owner, "trace", None) is not None:
            return False
        if getattr(owner, "checkpointer", None) is not None:
            return False
        if getattr(owner, "profiler", None) is not None:
            return False
    return True


def run_functional(sim, max_steps: int, costs=None) -> int:
    """Stripped equivalent of ``FunctionalSimulator.run``'s step loop.

    Runs until the machine halts or ``max_steps`` steps have run and
    returns the number of steps (trapped instructions included).  It
    fires no watchdog: a caller whose machine still runs when the budget
    is spent decides what that means -- ``run()`` fires the ``watchdog``
    trap (:func:`repro.faults.traps.fire_watchdog`), a batch lane applies
    its next fault events and carries on.  With ``costs`` (a
    :class:`~repro.cpu.multicycle.CycleCosts`) it also charges
    ``sim.cycles`` like ``MultiCycleSimulator.run``: per retired
    instruction by mnemonic, and ``costs.sys`` per trap.  The charge is
    made after every step (not batched) because trap records read the
    clock through ``machine.cycle_provider`` at delivery time, and the
    observed loop charges a trapping instruction only *after* delivery.
    """
    machine = sim.machine
    syscalls = sim.syscalls
    cost_of = (None if costs is None
               else {m: costs.cycles_for(m) for m in FAST_HANDLERS})
    trap_cost = costs.sys if costs is not None else 0
    mem = machine.mem
    entries = cache_for(machine).entries
    # Flight-recorder hot-path state: a bound ``list.append`` and a
    # countdown to the next trim, so a retire costs one branch, one
    # tuple, one append, and one integer compare -- no ``len()`` global
    # lookup, no method resolution.
    recorder = _flight.RECORDER
    fr_append = recorder.events.append if recorder.enabled else None
    fr_room = recorder.limit - len(recorder.events)
    steps = 0
    while steps < max_steps and not machine.halted:
        pc = machine.pc
        entry = entries.get(pc)
        if entry is None:
            entry = entries[pc] = _predecode(mem, pc)
        handler = entry.handler
        if handler is None:
            try:
                machine.trap(TrapCause.ILLEGAL_OPCODE, detail=entry.error)
            except TrapDelivered:
                if cost_of is not None:
                    sim.cycles += trap_cost
                steps += 1
                continue
        try:
            machine.pc = handler(machine, entry.instr, entry.ops,
                                 (pc + entry.words) & 0xFFFF, syscalls)
            machine.instret += 1
            if cost_of is not None:
                sim.cycles += cost_of[entry.mnemonic]
            if fr_append is not None:
                fr_append((0, pc, entry.raw))
                fr_room -= 1
                if fr_room <= 0:
                    recorder._trim()
                    fr_room = recorder.limit - len(recorder.events)
        except TrapDelivered:
            if cost_of is not None:
                sim.cycles += trap_cost
        steps += 1
    return steps
