"""Pipelined Tangled/Qat simulator: a cycle-stepped reference loop and a
stripped loop that replays its timing.

Models the student/author pipelines of paper section 3.1: a 4-stage
(IF, ID, EX, WB) or 5-stage (IF, ID, EX, MEM, WB) in-order pipeline that
"sustains completion of one instruction every clock cycle, provided there
were no pipeline interlocks encountered".  The timing artifacts the paper
calls out are all modeled:

- **variable-length fetch** -- two-word Qat instructions occupy IF for two
  cycles ("the most common student questions involved the fetch and
  decode handling of variable-length instructions");
- **data interlocks and forwarding** -- RAW hazards on both the Tangled
  and the Qat register files ("pipeline interlocks and forwarding are
  determined in part by coprocessor operations"); with forwarding the
  4-stage runs stall-free, without it consumers wait for writeback, and
  the 5-stage keeps the classic load-use bubble;
- **control hazards** -- branches/jumps resolve in EX and flush the two
  younger stages;
- **Qat register-file port structural hazard** -- section 2.5 notes
  ``swap``/``cswap`` need a second write port; configure
  ``second_qat_write_port=False`` to charge them an extra EX cycle
  instead (the section-5 ablation).

Architectural state changes happen exactly once, in program order, when
an instruction enters EX, and a store that rewrites a word already in ID
or IF squashes and refetches it, so the pipelined model is
state-equivalent to the functional simulator by construction --
``tests/test_conformance.py`` checks this on random programs anyway.

Two loops run the model.  :meth:`PipelinedSimulator.cycle` steps the
stage latches one clock at a time and executes through
:func:`repro.cpu.exec_core.execute`; it is the reference, and the only
loop for ``step()``/``cycle()``, telemetry (stage spans, ``--stats``,
``--trace-out``), profilers, checkpointers and ``latch`` fault
injection.  Because state changes only at EX, every
:class:`PipelineStats` field and trap clock is a function of the
retired stream and each instruction's static register use, so an
unobserved ``run()`` on a freshly loaded pipeline takes
:meth:`PipelinedSimulator._run_stripped` instead: the bare
``FAST_HANDLERS`` in retire order, with each instruction's fetch, ID and
EX cycles computed by a scoreboard.  The conformance harness holds the
two loops to identical statistics, trap records and flight streams.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.aob.bitvector import QAT_WAYS
from repro.cpu import fastpath as _fastpath
from repro.cpu.exec_core import execute
from repro.cpu.fastpath import Predecoded
from repro.cpu.state import MachineState
from repro.cpu.syscalls import SyscallHandler
from repro.errors import HaltedError
from repro.faults.traps import TrapCause, TrapDelivered, TrapPolicy
from repro.isa.instructions import Instr
from repro.isa.registers import NUM_GPRS, NUM_QAT_REGS
from repro.obs import flight as _flight
from repro.obs import runtime as _obs
from repro.obs.spans import PID_PIPELINE


@dataclass
class PipelineConfig:
    """Structural parameters of the pipeline."""

    stages: int = 4  # 4 (IF ID EX WB) or 5 (IF ID EX MEM WB)
    forwarding: bool = True
    second_qat_write_port: bool = True

    def __post_init__(self) -> None:
        if self.stages not in (4, 5):
            raise ValueError("stages must be 4 or 5")


@dataclass
class PipelineStats:
    """Cycle accounting."""

    cycles: int = 0
    retired: int = 0
    stall_data: int = 0
    stall_load_use: int = 0
    stall_structural: int = 0
    fetch_extra: int = 0
    branch_flushes: int = 0
    squashed: int = 0
    traps: int = 0

    @property
    def cpi(self) -> float:
        """Cycles per retired instruction."""
        return self.cycles / self.retired if self.retired else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "cycles": self.cycles,
            "retired": self.retired,
            "cpi": round(self.cpi, 4),
            "stall_data": self.stall_data,
            "stall_load_use": self.stall_load_use,
            "stall_structural": self.stall_structural,
            "fetch_extra": self.fetch_extra,
            "branch_flushes": self.branch_flushes,
            "squashed": self.squashed,
            "traps": self.traps,
        }


@dataclass
class _InFlight:
    """One instruction (or fetch error) moving through the pipe."""

    pc: int
    entry: Predecoded  # what IF read; stale once a store evicts it
    instr: Instr | None  # None = fetched garbage (wrong-path data)
    words: int = 1
    fetch_left: int = 0
    ex_left: int = 1
    executed: bool = False
    reads_gpr: frozenset = frozenset()
    writes_gpr: frozenset = frozenset()
    reads_qreg: frozenset = frozenset()
    writes_qreg: frozenset = frozenset()
    is_load: bool = False
    # (stage label, entry cycle) pairs, populated only while telemetry
    # tracing is active; None keeps the default path allocation-free.
    stage_entries: list | None = None


_IF, _ID, _EX = 0, 1, 2

#: Scoreboard slots of the stripped loop: the GPRs, then the Qat registers.
_SCOREBOARD = NUM_GPRS + NUM_QAT_REGS
#: Stripped-loop ``kind`` of an entry that may redirect fetch at EX.
_BRANCH, _JUMP, _STORE = 1, 2, 3


def _timing(entry: Predecoded) -> tuple:
    """``entry``'s stripped-loop timing for each of the 8 configurations.

    Indexed by ``stages == 5, not forwarding, not second_qat_write_port``
    as a 3-bit number; each item is ``(reads, writes, delay, length,
    kind)``: scoreboard slots read and written, the cycles from EX until
    a written value is readable, the cycles the instruction holds EX,
    and what can redirect fetch.  Memoized on the (interned) entry.
    """
    stat = entry.static
    if stat is None:  # undecodable: traps at EX, reads and writes nothing
        entry.timing = (((), (), 1, 1, 0),) * 8
        return entry.timing
    reads = (*sorted(stat.reads_gpr),
             *(NUM_GPRS + q for q in sorted(stat.reads_qreg)))
    writes = (*sorted(stat.writes_gpr),
              *(NUM_GPRS + q for q in sorted(stat.writes_qreg)))
    kind = (_BRANCH if stat.is_branch else _JUMP if stat.is_jump
            else _STORE if stat.is_store else 0)
    swap = entry.mnemonic in ("qswap", "qcswap")
    timing = []
    for cfg in range(8):
        length = 2 if swap and cfg & 1 else 1
        if cfg & 2:  # no forwarding: readable once the producer is in WB
            delay = length + 1
        else:  # forwarded from the end of EX, or of MEM for a 5-stage load
            delay = 2 if cfg & 4 and stat.is_load else 1
        timing.append((reads, writes, delay, length, kind))
    entry.timing = tuple(timing)
    return entry.timing


class PipelinedSimulator:
    """In-order scalar pipeline over the shared machine state."""

    def __init__(
        self,
        ways: int = QAT_WAYS,
        config: PipelineConfig | None = None,
        syscalls: SyscallHandler | None = None,
        trap_policy: TrapPolicy | None = None,
        qat_backend="dense",
    ):
        self.config = config or PipelineConfig()
        self.machine = MachineState(ways, trap_policy=trap_policy,
                                    qat_backend=qat_backend)
        self.machine.cycle_provider = lambda: self.stats.cycles
        self.syscalls = syscalls if syscalls is not None else SyscallHandler(
            cycle_source=lambda: self.stats.cycles
        )
        self.stats = PipelineStats()
        #: optional :class:`repro.faults.checkpoint.AutoCheckpointer`
        self.checkpointer = None
        #: optional :class:`repro.obs.profile.Profiler`; receives exactly
        #: one per-PC attribution per cycle while attached.
        self.profiler = None
        self._flush_refill = 0   # bubble cycles still owed to a flush
        self._flush_pc = 0       # PC of the branch/trap that caused them
        self._flush_instr = None
        nstages = self.config.stages
        self._pipe: list[_InFlight | None] = [None] * nstages
        self._fetch_pc = 0
        self._fetch_current: _InFlight | None = None
        # Set by run() while an installed telemetry instance is tracing;
        # every per-cycle hook is guarded on this being non-None.
        self._obs = None
        self._stage_names = (
            ("IF", "ID", "EX", "WB") if nstages == 4
            else ("IF", "ID", "EX", "MEM", "WB")
        )

    # -- program loading ---------------------------------------------------------

    def load(self, program, origin: int | None = None) -> None:
        """Load an assembled :class:`~repro.asm.Program` (or raw words)."""
        words = getattr(program, "words", program)
        entry = getattr(program, "entry", 0) if origin is None else origin
        self.machine.load_program(words, origin=0 if origin is None else origin)
        self.machine.pc = entry
        self._fetch_pc = entry
        self._fetch_current = None
        self._pipe = [None] * self.config.stages
        self.stats = PipelineStats()
        self._flush_refill = 0
        self._flush_instr = None

    # -- fetch/decode ----------------------------------------------------------------

    def _start_fetch(self) -> _InFlight:
        pc = self._fetch_pc
        entry = _fastpath.cache_for(self.machine).lookup(self.machine.mem, pc)
        instr = entry.instr
        if instr is None:
            # Wrong-path fetch of data; becomes an error only if executed.
            self._fetch_pc = (pc + 1) & 0xFFFF
            rec = _InFlight(pc=pc, entry=entry, instr=None, words=1,
                            fetch_left=1)
            if self._obs is not None:
                rec.stage_entries = [("IF", self.stats.cycles)]
            return rec
        words, stat = entry.words, entry.static
        self._fetch_pc = (pc + words) & 0xFFFF
        ex_left = 1
        if not self.config.second_qat_write_port and instr.mnemonic in (
            "qswap",
            "qcswap",
        ):
            # Two result writes through a single Qat write port.
            ex_left = 2
        rec = _InFlight(
            pc=pc,
            entry=entry,
            instr=instr,
            words=words,
            fetch_left=words,
            ex_left=ex_left,
            reads_gpr=stat.reads_gpr,
            writes_gpr=stat.writes_gpr,
            reads_qreg=stat.reads_qreg,
            writes_qreg=stat.writes_qreg,
            is_load=stat.is_load,
        )
        if self._obs is not None:
            rec.stage_entries = [("IF", self.stats.cycles)]
        return rec

    # -- hazards ------------------------------------------------------------------------

    def _id_stall_reason(self, rec: _InFlight) -> tuple[str, _InFlight] | None:
        """Why the instruction in ID cannot enter EX this cycle, if any.

        Returns ``(reason, producer)`` so the caller can both count the
        stall kind and blame the older instruction it waited on.
        """
        nstages = self.config.stages
        for s in range(_EX, nstages):
            prod = self._pipe[s]
            if prod is None or prod.instr is None:
                continue
            raw = (
                (rec.reads_gpr & prod.writes_gpr)
                or (rec.reads_qreg & prod.writes_qreg)
            )
            if not raw:
                continue
            if self.config.forwarding:
                # Results forward from the end of EX (loads: end of MEM in
                # the 5-stage) straight into the consumer's EX.
                if prod.is_load and s == _EX and nstages == 5:
                    return ("load_use", prod)
                continue
            # No forwarding: wait until the producer is in WB (split-phase
            # register file: write in the first half, read in the second).
            if s < nstages - 1:
                return ("data", prod)
        return None

    # -- the cycle ------------------------------------------------------------------------

    def cycle(self) -> None:
        """Advance the pipeline by one clock.

        Stage latches update from *old* values, so an instruction spends a
        full cycle in each stage: IF (per encoded word), ID, EX, [MEM,] WB.
        """
        if self.machine.halted:
            raise HaltedError("machine is halted", pc=self.machine.pc,
                              cycle=self.stats.cycles)
        pipe = self._pipe
        nstages = self.config.stages
        obs = self._obs
        prof = self.profiler
        self.stats.cycles += 1

        # WB: retire (instruction leaves the pipe).
        tail = pipe[nstages - 1]
        if tail is not None and tail.instr is not None:
            self.stats.retired += 1
            if obs is not None and tail.stage_entries is not None:
                self._emit_stage_spans(tail)

        if obs is not None and (self.stats.cycles & 63) == 0 and self.stats.retired:
            obs.tracer.sample(
                "pipeline.cpi",
                self.stats.cycles / self.stats.retired,
                ts_ns=self.stats.cycles * 1000,
                pid=PID_PIPELINE,
            )

        # EX occupancy: a multi-cycle EX holds everything upstream.
        ex_rec = pipe[_EX]
        ex_busy = ex_rec is not None and ex_rec.executed and ex_rec.ex_left > 1

        # Shift post-EX stages toward WB.
        for s in range(nstages - 1, _EX, -1):
            if s == _EX + 1 and ex_busy:
                pipe[s] = None  # EX keeps its instruction; a bubble moves on
            else:
                pipe[s] = pipe[s - 1]
                if (
                    obs is not None
                    and pipe[s] is not None
                    and pipe[s].stage_entries is not None
                ):
                    pipe[s].stage_entries.append(
                        (self._stage_names[s], self.stats.cycles)
                    )

        redirected = False
        if ex_busy:
            ex_rec.ex_left -= 1
            self.stats.stall_structural += 1
            pipe[_EX] = ex_rec
            if prof is not None:
                prof.attribute(ex_rec.pc, "structural", instr=ex_rec.instr)
        else:
            # ID -> EX (with interlock check).
            id_rec = pipe[_ID]
            stall = self._id_stall_reason(id_rec) if id_rec is not None else None
            if stall is not None:
                pipe[_EX] = None
                reason, producer = stall
                if reason == "data":
                    self.stats.stall_data += 1
                else:
                    self.stats.stall_load_use += 1
                if prof is not None:
                    prof.attribute(id_rec.pc, "raw" if reason == "data"
                                   else reason, instr=id_rec.instr,
                                   blame_pc=producer.pc)
            else:
                pipe[_EX] = id_rec
                pipe[_ID] = None
                if (
                    obs is not None
                    and id_rec is not None
                    and id_rec.stage_entries is not None
                ):
                    id_rec.stage_entries.append(("EX", self.stats.cycles))

            # Execute on EX entry (all architectural state changes happen
            # here, in program order).  A trap taken here is precise:
            # older instructions have retired, the trapped one is
            # squashed, and younger wrong-path work is flushed.
            entering = pipe[_EX]
            if entering is not None and not entering.executed:
                self.machine.pc = entering.pc
                entering.executed = True
                if prof is not None:
                    prof.attribute(entering.pc, "issue", instr=entering.instr)
                    prof.current_pc = entering.pc
                try:
                    if entering.instr is None:
                        self.machine.trap(TrapCause.ILLEGAL_OPCODE,
                                          detail=entering.entry.error)
                    effects = execute(self.machine, entering.instr, self.syscalls)
                except TrapDelivered:
                    if prof is not None:
                        prof.current_pc = None
                    self.stats.traps += 1
                    pipe[_EX] = None  # trapped instruction never retires
                    if self.machine.halted:
                        return
                    # Vectored: flush the wrong-path stages and refetch
                    # from the handler address the trap installed.
                    self._flush_front(self.machine.pc, entering)
                    return  # redirect lands next cycle (2-cycle penalty)
                if prof is not None:
                    prof.current_pc = None
                if self.machine.halted:
                    return
                if effects.taken_branch:
                    # Flush the two younger stages; the fetch redirect takes
                    # effect at the end of this cycle (2-cycle penalty).
                    self.stats.branch_flushes += 1
                    self._flush_front(effects.next_pc, entering)
                    redirected = True
                elif effects.is_store and self._front_end_stale():
                    # The store rewrote a word already fetched: refetch
                    # it, at the same penalty as a taken branch.
                    self._flush_front(effects.next_pc, entering)
                    redirected = True
            elif prof is not None and stall is None:
                # Bubble: the backend had nothing to issue.  Charge the
                # flush that emptied the frontend while its penalty is
                # still being repaid, otherwise the fetch in progress
                # (two-word Qat fetch, pipeline fill after reset).
                if self._flush_refill > 0:
                    self._flush_refill -= 1
                    prof.attribute(self._flush_pc, "flush",
                                   instr=self._flush_instr)
                else:
                    fetching = self._fetch_current
                    prof.attribute(
                        fetching.pc if fetching is not None else self._fetch_pc,
                        "fetch",
                        instr=fetching.instr if fetching is not None else None,
                    )

        # IF -> ID: only a fetch that completed in an *earlier* cycle may
        # latch into a free ID slot (old-state latching).
        if (
            not redirected
            and pipe[_ID] is None
            and self._fetch_current is not None
            and self._fetch_current.fetch_left == 0
        ):
            pipe[_ID] = self._fetch_current
            self._fetch_current = None
            if obs is not None and pipe[_ID].stage_entries is not None:
                pipe[_ID].stage_entries.append(("ID", self.stats.cycles))

        # IF: progress the in-flight fetch / start the next one.
        if not redirected:
            self._fetch_progress()

    def _flush_front(self, target: int, cause: _InFlight) -> None:
        """Squash ID and the fetch in progress; refetch from ``target``."""
        if self._pipe[_ID] is not None:
            self.stats.squashed += 1
        self._pipe[_ID] = None
        if self._fetch_current is not None:
            self.stats.squashed += 1
        self._fetch_current = None
        self._fetch_pc = target
        self._flush_refill = 2
        self._flush_pc = cause.pc
        self._flush_instr = cause.instr

    def _front_end_stale(self) -> bool:
        """Did a store evict the predecode entry of a fetched word?"""
        entries = _fastpath.cache_for(self.machine).entries
        return any(rec is not None and entries.get(rec.pc) is not rec.entry
                   for rec in (self._pipe[_ID], self._fetch_current))

    def _fetch_progress(self) -> None:
        """One cycle of instruction fetch work."""
        if self._fetch_current is None:
            self._fetch_current = self._start_fetch()
        rec = self._fetch_current
        if rec.fetch_left > 0:
            rec.fetch_left -= 1
            if rec.fetch_left > 0:
                self.stats.fetch_extra += 1

    # -- telemetry -----------------------------------------------------------------------------

    def _emit_stage_spans(self, rec: _InFlight) -> None:
        """Emit one cycle-domain span per stage the retired ``rec`` occupied."""
        tracer = self._obs.tracer
        entries = rec.stage_entries
        label = rec.instr.render() if rec.instr is not None else f"?@{rec.pc:04x}"
        now = self.stats.cycles
        for i, (stage, start) in enumerate(entries):
            end = entries[i + 1][1] if i + 1 < len(entries) else now
            tracer.complete(
                label,
                ts_ns=start * 1000,
                dur_ns=max(end - start, 1) * 1000,
                cat="stage",
                pid=PID_PIPELINE,
                tid=stage,
                pc=f"{rec.pc:#06x}",
            )

    # -- driving -------------------------------------------------------------------------------

    def run(self, max_cycles: int = 10_000_000) -> PipelineStats:
        """Run to ``sys``-halt; returns the cycle statistics.

        While a telemetry instance is installed (``repro.obs``), the run
        is wrapped in a ``pipeline.run`` span, per-stage occupancy is
        traced on the cycle timebase, and the final
        :class:`PipelineStats` are published into the metric registry.

        With no observer attached (:func:`repro.cpu.fastpath.eligible`)
        and the pipeline fresh from :meth:`load`, the stripped loop
        :meth:`_run_stripped` replays the cycle-stepped loop's timing
        without stepping the latches.
        """
        telemetry = _obs.current() if _obs.active else None
        self._obs = telemetry if (telemetry is not None and telemetry.tracing) else None
        try:
            if telemetry is not None:
                with telemetry.span(
                    "pipeline.run",
                    cat="cpu",
                    stages=self.config.stages,
                    forwarding=self.config.forwarding,
                ):
                    self._run_to_halt(max_cycles)
            elif (self.stats.cycles == 0 and self._fetch_current is None
                  and _fastpath.eligible(self)):
                self._run_stripped(max_cycles)
            else:
                self._run_to_halt(max_cycles)
        finally:
            self._obs = None
            # Every executed instruction would drain to WB; count them
            # all so CPI is consistent with the functional instruction
            # count, also when a trap or error escapes.
            self.stats.retired = self.machine.instret
        if telemetry is not None:
            telemetry.publish_pipeline(self.stats)
        return self.stats

    def _run_to_halt(self, max_cycles: int) -> None:
        checkpointer = self.checkpointer
        while not self.machine.halted:
            if self.stats.cycles >= max_cycles:
                try:
                    self.machine.trap(
                        TrapCause.WATCHDOG,
                        detail=f"exceeded {max_cycles} cycles without halting",
                    )
                except TrapDelivered:
                    break
            self.cycle()
            if checkpointer is not None:
                checkpointer.tick(self.machine, cycle=self.stats.cycles)

    def _run_stripped(self, max_cycles: int) -> None:
        """The stripped loop: handlers in retire order, timing by scoreboard.

        Architectural state changes once per instruction, at EX, so the
        cycle-stepped loop's :class:`PipelineStats` and trap clocks are
        a function of the retired stream.  For each instruction this
        computes the cycle its fetch starts (``fetch``), its ID and EX
        entry cycles, and the cycle each register it writes becomes
        readable (``ready``), then runs its handler bare with
        ``stats.cycles`` already at EX -- where trap records and the
        cycle-counter syscall read the clock.
        """
        machine = self.machine
        stats = self.stats
        syscalls = self.syscalls
        mem = machine.mem
        cache = _fastpath.cache_for(machine)
        entries = cache.entries
        predecode = _fastpath._predecode
        config = self.config
        cfg = ((config.stages == 5) << 2 | (not config.forwarding) << 1
               | (not config.second_qat_write_port))
        recorder = _flight.RECORDER
        fr_append = recorder.events.append if recorder.enabled else None
        fr_room = recorder.limit - len(recorder.events)
        ready = [0] * _SCOREBOARD
        stalls = structural = fetch_extra = flushes = squashed = traps = 0
        pc = self._fetch_pc
        entry = cache.lookup(mem, pc)
        fetch_extra += entry.words == 2
        fetch = 1  # the cycle the fetch of ``entry`` started
        ex = 0     # EX cycle of the previous instruction
        free = 0   # first cycle EX can take the next instruction
        try:
            while not machine.halted:
                words = entry.words
                timing = entry.timing
                if timing is None:
                    timing = _timing(entry)
                reads, writes, delay, length, kind = timing[cfg]
                idc = fetch + words
                if idc < ex:
                    idc = ex
                start = idc + 1 if idc >= free else free
                at = start
                for reg in reads:
                    if ready[reg] > at:
                        at = ready[reg]
                # Entering ID started the fall-through fetch.
                seq = (pc + words) & 0xFFFF
                nxt = entries.get(seq)
                if nxt is None:
                    nxt = entries[seq] = predecode(mem, seq)
                if at > max_cycles:
                    # The watchdog fires at max_cycles, before this
                    # instruction reaches EX: keep the events up to then.
                    stalls += max(0, max_cycles + 1 - start)
                    fetch_extra += ((idc <= max_cycles and nxt.words == 2)
                                    - (fetch > max_cycles and words == 2))
                    structural -= max(0, free - 1 - max_cycles)
                    stats.cycles = max_cycles
                    try:
                        machine.trap(
                            TrapCause.WATCHDOG,
                            detail=f"exceeded {max_cycles} cycles without halting",
                        )
                    except TrapDelivered:
                        break
                stalls += at - start
                if nxt.words == 2:
                    fetch_extra += 1
                ex = stats.cycles = at
                machine.pc = pc
                try:
                    handler = entry.handler
                    if handler is None:
                        machine.trap(TrapCause.ILLEGAL_OPCODE,
                                     detail=entry.error)
                    npc = machine.pc = handler(machine, entry.instr, entry.ops,
                                               seq, syscalls)
                except TrapDelivered:
                    # The trapped instruction writes nothing; a vectored
                    # trap refetches from the handler.
                    traps += 1
                    if machine.halted:
                        break
                    npc = machine.pc
                else:
                    machine.instret += 1
                    if fr_append is not None:
                        fr_append((0, pc, entry.raw))
                        fr_room -= 1
                        if fr_room <= 0:
                            recorder._trim()
                            fr_room = recorder.limit - len(recorder.events)
                    done = at + delay
                    for reg in writes:
                        ready[reg] = done
                    free = at + length
                    structural += length - 1
                    if not kind:
                        redirect = False
                    elif kind == _BRANCH:
                        # Taken by its condition: a zero offset flushes too.
                        redirect = npc != seq or (not entry.ops[1] and (
                            int(machine.regs[entry.ops[0]]) != 0)
                            == (entry.mnemonic == "brt"))
                        flushes += redirect
                    elif kind == _JUMP:
                        redirect = True
                        flushes += 1
                    else:  # a store that evicted the fall-through's entry
                        redirect = entries.get(seq) is not nxt
                    if not redirect:
                        pc, entry, fetch = seq, nxt, idc
                        continue
                # A redirect at EX kills the fall-through fetch; the
                # fetch of ``npc`` starts next cycle.
                squashed += 1
                pc = npc
                entry = cache.lookup(mem, pc)
                fetch_extra += entry.words == 2
                fetch = at + 1
        finally:
            if config.forwarding:
                stats.stall_load_use += stalls
            else:
                stats.stall_data += stalls
            stats.stall_structural += structural
            stats.fetch_extra += fetch_extra
            stats.branch_flushes += flushes
            stats.squashed += squashed
            stats.traps += traps
            # Anything stepped after this refetches from the PC.
            self._fetch_pc = machine.pc

    def step(self) -> None:
        """Advance one clock (alias of :meth:`cycle`).

        All three simulators expose ``step()`` with uniform
        :class:`~repro.errors.HaltedError` behaviour after halt.
        """
        self.cycle()

    @property
    def cpi(self) -> float:
        """Cycles per retired instruction so far."""
        return self.stats.cpi
