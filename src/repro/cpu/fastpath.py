"""Predecode cache and the stripped run loop with its translated tier.

The ISA semantics live in one table, :data:`repro.cpu.exec_core.FAST_HANDLERS`,
and two loops run it.  :func:`repro.cpu.exec_core.execute` is the
observed step: it wraps each handler in the flight-recorder and
telemetry hooks and returns an ``Effects`` record for timing models
and profilers.  This module holds the other loop, stripped of
everything an unobserved run does not need:

- **Predecode cache** (:class:`PredecodeCache`): each program word is
  decoded once into a :class:`Predecoded` entry carrying the
  instruction, its handler, and its
  :class:`~repro.cpu.exec_core.StaticEffects`.  Decoded entries are pure
  functions of their bit patterns, so they are interned process-wide
  (the :data:`CODE_CACHE_LIMIT` fetched last) and shared by all three
  simulators.  Stores invalidate precisely
  (``MachineState.write_mem`` drops the entry at the written address
  plus a two-word entry starting one word earlier, and every translated
  block holding the word), so self-modifying code simply re-decodes the
  rewritten words.
- **Stripped run loop** (:func:`run_functional`): no span enter/exit,
  no per-step ``Effects`` allocation, locals-bound state, and handler
  dispatch through the predecoded table.  When ``sim.costs`` is a
  :class:`~repro.cpu.multicycle.CycleCosts` it also charges the
  multi-cycle model's cycles, so it serves the functional simulator's
  ``advance()`` and, through it, the multi-cycle simulator that
  subclasses it.  It stops at a step count and leaves the watchdog to
  its callers, so the lanes of a batch (:mod:`repro.cpu.batch`) run it
  in segments, with their fault events applied in between.
- **Translated blocks** (:func:`_translate`): once a leader pc has been
  visited :data:`HOT_THRESHOLD` times, the run of instructions from it
  that cannot trap under the machine's trap policy, up to and including
  the next branch, jump or store, is compiled into one Python closure
  that keeps the registers in locals.  Every instruction it holds is
  inlined from :data:`repro.cpu.exec_core.TEMPLATES`, the table that
  also builds the handlers, Qat gates and readouts included; a block
  stops before ``sys``, the one instruction without a row, so it calls
  no handler.  Compiled code is cached process-wide
  (:data:`CODE_CACHE_LIMIT`) on the leader and its entries alone, so
  every machine loaded with the same program, on any engine, runs the
  same closure.  The pipelined simulator's stripped
  loop (:mod:`repro.cpu.pipeline`) times a block from a table kept
  beside its closure, one per pipeline configuration.
- **Selection** (:func:`eligible`): a stripped loop is only taken
  when telemetry capture, auto-checkpointing, and profiling are all
  inactive; any observer keeps the observed loop.  The
  pipelined simulator's stripped loop lives in
  :mod:`repro.cpu.pipeline`: it runs the same handlers and the same
  translated blocks, timed, while this loop pays for no timing.  The
  flight recorder (:mod:`repro.obs.flight`) is *not* an observer in
  this sense: its retire append is cheap enough to stay inside the
  stripped loops (a translated block extends the ring with its
  precomputed records), so it never costs eligibility.

Both loops call the same handlers, so traps raise through the same
:func:`repro.faults.traps.deliver` machinery with the same causes and
detail strings; ``tests/test_conformance.py`` holds both loops, the
translated blocks, and every other engine, to one reference on random
programs.
"""

from __future__ import annotations

from functools import lru_cache

from repro.cpu.exec_core import (FAST_HANDLERS, TEMPLATE_GLOBALS, TEMPLATES,
                                 static_effects)
from repro.errors import EncodingError
from repro.faults.traps import TrapCause, TrapDelivered
from repro.isa.encoding import decode
from repro.isa.instructions import INSTRUCTIONS
from repro.obs import flight as _flight
from repro.obs import runtime as _obs

#: Major opcodes of two-word (Qat multi-register) instructions.
_TWO_WORD_MAJORS = (0x8, 0x9)

_MEM_WORDS = 1 << 16

#: Leader visits after which :func:`run_functional` translates the block
#: starting there.
HOT_THRESHOLD = 8
#: Longest translated block, in instructions.
MAX_BLOCK = 64
#: Compiled blocks, and decoded words (:data:`_INTERN`,
#: :data:`repro.cpu.exec_core._STATIC`), kept process-wide; the oldest is
#: dropped first.
CODE_CACHE_LIMIT = 1024

#: Mnemonics that end a block, which includes them.
_BLOCK_ENDS = frozenset(("brf", "brt", "jumpr", "store"))
#: Mnemonics whose successor is a leader (``None``: an undecodable word).
_LEADS = _BLOCK_ENDS | {"sys", None}


class Predecoded:
    """One decoded program word (or decode error), ready to dispatch."""

    __slots__ = ("instr", "ops", "mnemonic", "words", "handler", "static",
                 "raw", "error", "timing", "leads")

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
        #: the next instruction is a leader (see :func:`run_functional`)
        self.leads = self.mnemonic in _LEADS


#: Process-wide intern table: word (or ``(word1, word2)``) -> entry.
#: Decode -- including every EncodingError message -- is a pure function
#: of the fetched bit patterns, so entries are safely shared across
#: machines, simulators, and repeated loads of the same program.  Every
#: memory fault on a program word decodes a new word, so the table keeps
#: :data:`CODE_CACHE_LIMIT` entries and drops the one fetched longest
#: ago, so the entries a run is using are the last to go.
_INTERN: dict = {}


def _predecode(mem, pc: int) -> Predecoded:
    """Decode (or fetch from the intern table) the word(s) at ``pc``."""
    word = mem[pc]
    if (word >> 12) in _TWO_WORD_MAJORS and pc + 1 < _MEM_WORDS:
        key = (word, mem[pc + 1])
    else:
        key = word
    entry = _INTERN.pop(key, None)
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
        if len(_INTERN) >= CODE_CACHE_LIMIT:
            del _INTERN[next(iter(_INTERN))]
    _INTERN[key] = entry
    return entry


class PredecodeCache:
    """Per-machine ``pc -> Predecoded`` map and translated blocks, with
    precise invalidation."""

    __slots__ = ("entries", "blocks", "covers", "heat", "stamp")

    def __init__(self):
        self.entries: dict[int, Predecoded] = {}
        #: leader pc -> translated block ``(run, n, records, cost)`` (see
        #: :func:`_translate`), or ``()`` where none can start
        self.blocks: dict[int, tuple] = {}
        #: word address -> leader pcs of the blocks holding that word
        self.covers: dict[int, set] = {}
        #: leader pc -> visits so far (see :data:`HOT_THRESHOLD`)
        self.heat: dict[int, int] = {}
        #: ``(untranslatable mnemonics, CycleCosts or pipeline
        #: configuration)`` the blocks were built for
        self.stamp = None

    def lookup(self, mem, pc: int) -> Predecoded:
        entry = self.entries.get(pc)
        if entry is None:
            entry = self.entries[pc] = _predecode(mem, pc)
        return entry

    def invalidate(self, addr: int) -> None:
        """Drop entries and blocks covering ``addr`` after a store there.

        An instruction is at most two words long, so only the entry at
        ``addr`` itself and a two-word entry starting at ``addr - 1``
        can have consumed the written word.  A store at address 0 has no
        predecessor: probing ``addr - 1`` must not wrap to the top of
        memory (a two-word entry at ``_MEM_WORDS - 1`` cannot exist --
        its second word would be off the end -- but the wrapped probe
        used to evict whatever entry lived there).  A dropped block also
        loses its heat, so code that keeps rewriting itself stays
        interpreted.
        """
        entries = self.entries
        entries.pop(addr, None)
        starts = self.covers.pop(addr, None)
        if starts:
            for start in starts:
                self.blocks.pop(start, None)
                self.heat.pop(start, None)
        if addr == 0:
            return
        prev = addr - 1
        before = entries.get(prev)
        if before is not None and before.words == 2:
            del entries[prev]

    def invalidate_all(self) -> None:
        self.entries.clear()
        self.blocks.clear()
        self.covers.clear()
        self.heat.clear()

    def retarget(self, stamp) -> None:
        """Drop blocks built for another trap policy or timing model."""
        if stamp != self.stamp:
            self.blocks.clear()
            self.covers.clear()
            self.stamp = stamp


def cache_for(machine) -> PredecodeCache:
    """The machine's predecode cache."""
    return machine._predecode


def eligible(sim) -> bool:
    """Should ``sim`` take a stripped loop right now?

    Only when *no* observer -- telemetry capture, an auto-checkpointer,
    or a profiler -- is attached to the simulator.
    The functional and multi-cycle simulators' ``advance()`` then runs
    :func:`run_functional`; ``PipelinedSimulator.run`` runs the
    pipeline's own stripped loop, and only from a freshly loaded
    pipeline.
    """
    return not _obs.active and all(
        getattr(sim, observer, None) is None
        for observer in ("checkpointer", "profiler"))


def _untranslatable(policy) -> frozenset:
    """Mnemonics no block may hold under ``policy``: ``sys`` and every
    instruction that can trap there.

    A :class:`~repro.faults.traps.TrapPolicy` is mutable, so the set is
    memoized on the three fields that decide it, not on the policy.
    """
    return _unsafe(policy.trap_bf16, policy.mem_fence is not None,
                   policy.strict_qat)


@lru_cache(maxsize=None)
def _unsafe(bf16: bool, fence: bool, strict_qat: bool) -> frozenset:
    traps = {"bf16": bf16, "fence": fence, "qat": strict_qat}
    return frozenset({m for m, (_, _, trap, _) in TEMPLATES.items()
                      if trap and traps[trap]} | {"sys"})


#: ``(leader pc, entries) -> (run, records, tables)``, shared by every
#: machine and engine: a block is a pure function of its words and its
#: address (the trap policy only decides where a chain ends).  ``tables``
#: holds what the engines derive from the block per timing model -- the
#: pipeline's per-configuration timing tables (:mod:`repro.cpu.pipeline`)
#: -- so :data:`CODE_CACHE_LIMIT` bounds them too.
_CODE: dict = {}


def _compile(start: int, chain: list) -> tuple:
    """One block's closure ``run(machine) -> next pc`` and its retire
    records: ``(run, records)``.

    Registers live in locals ``r0``..``r15``: each is read from
    ``machine.regs`` before its first use and written back once, at the
    end.  Each instruction's :data:`TEMPLATES` row is inlined, Qat gates
    and readouts included (Qat register numbers and immediates are
    literals); a block never holds ``sys``, the one instruction without
    a row, so it calls no handler.
    """
    namespace = dict(TEMPLATE_GLOBALS)
    body, dirty, have = [], set(), set()
    records = []
    pc = start
    tail = None
    for entry in chain:
        records.append((_flight.RETIRE, pc, entry.raw))
        pc_next = (pc + entry.words) & 0xFFFF
        writes, expr, _, _ = TEMPLATES[entry.mnemonic]
        fields = {"n": str(pc_next)}
        for kind, value in zip(INSTRUCTIONS[entry.mnemonic].operands,
                               entry.ops):
            if kind in "ioABCk":
                fields[kind] = f"({value})"
                continue
            fields[kind] = f"r{value}"
            if "{%s}" % kind in expr and value not in have:
                body.append(f"r{value} = regs[{value}]")
                have.add(value)
        text = expr.format(**fields)
        if writes == "d":
            body.append(f"r{entry.ops[0]} = {text}")
            have.add(entry.ops[0])
            dirty.add(entry.ops[0])
        elif writes == "pc":
            tail = f"return {text}"
        else:
            body.append(text)
        pc = pc_next
    lines = (["regs = machine.regs"] + body
             + [f"regs[{r}] = r{r}" for r in sorted(dirty)]
             + [tail or f"return {pc}"])
    source = "def run(machine):\n" + "".join(f"    {line}\n"
                                              for line in lines)
    exec(compile(source, f"<block {start:#06x}>", "exec"), namespace)
    return namespace["run"], tuple(records)


def _translate(cache: PredecodeCache, mem, start: int, unsafe: frozenset,
               cost=None) -> tuple:
    """Map the block that starts at ``start`` in ``cache``; returns it.

    The block runs from ``start`` up to and including the first branch,
    jump or store, and stops before any ``unsafe`` instruction, any
    undecodable word, and at :data:`MAX_BLOCK` instructions.  ``()``
    marks a leader where no block can start.  A block is ``(run, n,
    records, cost)``, where ``cost`` is ``cost(chain, fall-through pc,
    tables)`` with the compiled block's ``tables`` (see :data:`_CODE`):
    the multi-cycle model's charge, or the pipeline's timing table.
    """
    chain = []
    pc = start
    while len(chain) < MAX_BLOCK:
        entry = cache.lookup(mem, pc)
        if entry.handler is None or entry.mnemonic in unsafe:
            break
        chain.append(entry)
        pc = (pc + entry.words) & 0xFFFF
        if entry.mnemonic in _BLOCK_ENDS:
            break
    block = ()
    if chain:
        key = (start, tuple(chain))
        code = _CODE.get(key)
        if code is None:
            if len(_CODE) >= CODE_CACHE_LIMIT:
                del _CODE[next(iter(_CODE))]
            code = _CODE[key] = (*_compile(start, chain), {})
        run, records, tables = code
        block = (run, len(chain), records,
                 None if cost is None else cost(chain, pc, tables))
    cache.blocks[start] = block
    for addr in range(start, start + max(1, (pc - start) & 0xFFFF)):
        cache.covers.setdefault(addr & 0xFFFF, set()).add(start)
    return block


def run_functional(sim, max_steps: int) -> int:
    """Stripped equivalent of ``FunctionalSimulator.advance``'s step loop.

    Runs until the machine halts or ``max_steps`` steps have run and
    returns the number of steps (trapped instructions included).  It
    fires no watchdog: a caller whose machine still runs when the budget
    is spent decides what that means -- ``run()`` fires the ``watchdog``
    trap (:func:`repro.faults.traps.fire_watchdog`), a batch lane applies
    its next fault events and carries on.  When ``sim.costs`` is a
    :class:`~repro.cpu.multicycle.CycleCosts` it also charges
    ``sim.cycles`` like ``MultiCycleSimulator.step``: per retired
    instruction by mnemonic, and ``costs.sys`` per trap.  The charge is
    made after every step (not batched) because trap records read the
    clock through ``machine.cycle_provider`` at delivery time, and the
    observed loop charges a trapping instruction only *after* delivery.

    The loop has two tiers.  At a *leader* -- where the run starts, and
    after a block, a branch, jump, store, ``sys`` or delivered trap -- it
    counts a visit, and once the count reaches :data:`HOT_THRESHOLD` it
    runs the translated block starting there (:func:`_translate`) in one
    call, provided the block fits in the steps left.  A block holds no
    instruction that can trap, so it retires whole: ``instret``, the
    cycle charge and the flight records are added after it.  Every
    other step is interpreted one handler at a time.
    """
    machine = sim.machine
    syscalls = sim.syscalls
    costs = sim.costs
    cost_of = (None if costs is None
               else {m: costs.cycles_for(m) for m in FAST_HANDLERS})

    def charge(chain, seq, tables):
        return sum(cost_of[entry.mnemonic] for entry in chain)

    trap_cost = costs.sys if costs is not None else 0
    mem = machine.mem
    cache = cache_for(machine)
    unsafe = _untranslatable(machine.trap_policy)
    cache.retarget((unsafe, costs))
    entries = cache.entries
    blocks = cache.blocks
    heat = cache.heat
    hot = HOT_THRESHOLD
    # Flight-recorder hot-path state: a bound ``list.append`` (and
    # ``list.extend`` for a block's records) and a countdown to the next
    # trim, so a retire costs one branch, one tuple, one append, and one
    # integer compare -- no ``len()`` global lookup, no method resolution.
    recorder = _flight.RECORDER
    fr_append = recorder.events.append if recorder.enabled else None
    fr_extend = recorder.events.extend
    fr_room = recorder.limit - len(recorder.events)
    steps = 0
    leader = True
    while steps < max_steps and not machine.halted:
        pc = machine.pc
        if leader:
            block = blocks.get(pc)
            if block is None:
                visits = heat[pc] = heat.get(pc, 0) + 1
                if visits >= hot:
                    block = _translate(cache, mem, pc, unsafe,
                                       charge if costs is not None else None)
            if block and steps + block[1] <= max_steps:
                run, n, records, cycles = block
                machine.pc = run(machine)
                machine.instret += n
                steps += n
                if cost_of is not None:
                    sim.cycles += cycles
                if fr_append is not None:
                    fr_extend(records)
                    fr_room -= n
                    if fr_room <= 0:
                        recorder._trim()
                        fr_room = recorder.limit - len(recorder.events)
                continue
        entry = entries.get(pc)
        if entry is None:
            entry = entries[pc] = _predecode(mem, pc)
        leader = entry.leads
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
            leader = True
            if cost_of is not None:
                sim.cycles += trap_cost
        steps += 1
    return steps
