"""Fault-campaign batches: N scalar machines over one program image.

Every faulted run of ``tangled faults`` is a lane of a
:class:`BatchFunctionalSimulator`: a serial campaign runs 1-lane
batches, ``--batch N`` packs N runs into one, and each ``--jobs``
worker runs its run as a 1-lane batch.  A lane is a plain simulator of
any of the three engines (:func:`repro.cpu.new_simulator`), so lanes
add no semantics and no loop of their own: a lane runs through its
simulator's ``advance(n)``, the loop behind that simulator's ``run()``.
Functional and multi-cycle lanes therefore take the stripped loop
:func:`repro.cpu.fastpath.run_functional` unless an observer such as
telemetry is attached; pipelined lanes step one clock cycle at a time,
because their plan steps are cycles and ``latch`` faults need the
in-flight latches.

A lane's fault events are applied between segments of that advance
(:func:`repro.faults.inject.apply_event`), after exactly ``event.step``
steps.

Lanes fork from a golden run.  Up to its first fault step a lane is
the fault-free program, so when a batch of two or more functional or
multi-cycle lanes runs unobserved (:func:`repro.cpu.fastpath.eligible`)
one fault-free *twin* runs that shared prefix once, through the lanes'
sorted first fault steps, and copies its state into each lane as it
reaches the lane's step: GPRs, ``pc``, ``instret``, ``halted``, trap
records, output, the Qat register list, the multi-cycle clock, and the
memory words the prefix stored (replayed through the lane's
``write_mem``, so the lane's predecoded code is invalidated as a store
would).  Each lane then runs on from there, its events applied as
above.  The twin's flight records stay out of the ring; each forked
lane puts the records of its prefix there when it starts, so the ring
holds the same stream as a full replay.  Observed runs, pipelined
lanes and 1-lane batches replay their prefix, as do the lanes whose
first step lies past a point where the twin's trap raised.

What the lanes of a batch share:

- the loaded image, predecoded once: every lane starts from a copy of
  the same predecode entries;
- on the ``re`` backend, one chunk store and one operand-identity gate
  memo (:class:`~repro.cpu.qat_backend.SharedREStore`), so each distinct
  gate runs once per batch.  Dense lanes keep private register files.

A lane whose trap raises under the default policy stops there, with the
error's text in :attr:`BatchFunctionalSimulator.errors`; the other lanes
still run.  ``tests/test_batch.py`` holds lanes, forked or not, to
serial runs and to committed campaign reports, and
``tests/conformance.py`` holds every lane to the oracle.
"""

from __future__ import annotations

import mmap
from itertools import islice

from repro.aob.bitvector import QAT_WAYS
from repro.cpu import fastpath as _fastpath
from repro.cpu.qat_backend import REQatBackend, SharedREStore
from repro.cpu.state import MEM_WORDS
from repro.errors import ReproError, SimulatorError
from repro.faults.inject import apply_event
from repro.faults.traps import TrapPolicy, fire_watchdog
from repro.obs import flight as _flight


class LaneSteps(list):
    """Per-lane step counts, as ints; ``sum()`` totals them, as it did
    when they were an array (profiling harnesses call it)."""

    def sum(self) -> int:
        return sum(self)


class BatchFunctionalSimulator:
    """``n`` machines of one engine loaded with one image, run lane by lane.

    ``sim`` names the engine (``"functional"``, ``"multicycle"`` or
    ``"pipelined"``); a pipelined lane's steps are cycles.
    """

    def __init__(self, n: int, ways: int = QAT_WAYS,
                 trap_policy: TrapPolicy | None = None,
                 qat_backend="dense", sim: str = "functional"):
        from repro.cpu import new_simulator

        if n <= 0:
            raise SimulatorError(f"batch size must be positive, got {n}")
        shared = SharedREStore(ways) if qat_backend == "re" else None
        self.pipelined = sim == "pipelined"
        # Lanes fork from one more machine of the same kind (see run()).
        rows = n + (n > 1 and not self.pipelined)
        # Lane memories are rows of one anonymous mapping, whose pages the
        # kernel zero-fills on first touch: a lane's resident memory is
        # the few pages it writes.
        size = 2 * MEM_WORDS
        block = memoryview(mmap.mmap(-1, rows * size))
        machines = []
        for row in range(rows):
            lane = new_simulator(
                sim, ways,
                qat_backend if shared is None
                else REQatBackend(ways, shared=shared),
                trap_policy=trap_policy)
            lane.machine.mem = block[row * size:(row + 1) * size].cast("H")
            machines.append(lane)
        self.lanes = machines[:n]
        #: the fault-free twin the next :meth:`run` forks lanes from
        self._twin = machines[n] if rows > n else None
        #: per lane, the text of the error its run raised (else ``None``)
        self.errors: list[str | None] = [None] * n
        self.n = n

    def load(self, program, origin: int | None = None) -> None:
        """Load one assembled Program (or raw words) into every lane."""
        first = self.lanes[0]
        first.load(program, origin)
        machine = first.machine
        start = 0 if origin is None else origin
        end = start + len(getattr(program, "words", program))
        cache = _fastpath.cache_for(machine)
        for pc in range(start, end):
            cache.lookup(machine.mem, pc)
        image = machine.mem[start:end]
        others = self.lanes[1:] + ([self._twin] if self._twin else [])
        for lane in others:
            lane.machine.mem[start:end] = image
            lane.machine.pc = machine.pc
            if self.pipelined:
                lane._fetch_pc = machine.pc
            _fastpath.cache_for(lane.machine).entries = dict(cache.entries)

    def run(self, max_steps: int = 1_000_000, plans=None,
            watchdog_detail: str | None = None) -> LaneSteps:
        """Run every lane to halt; returns per-lane step counts.

        ``plans`` (optional: one :class:`~repro.faults.inject.FaultPlan`
        or ``None`` per lane) injects each lane's events after as many
        steps as ``event.step`` says.  A lane still running after
        ``max_steps`` steps takes the ``watchdog`` trap;
        ``watchdog_detail`` lets the campaign runner supply its detail
        string.  The first run after :meth:`load` forks the lanes from
        the twin when nothing observes them (see the module docstring).
        """
        if plans is not None and len(plans) != self.n:
            raise SimulatorError(
                f"got {len(plans)} fault plans for {self.n} lanes"
            )
        if watchdog_detail is None:
            watchdog_detail = f"exceeded {max_steps} steps without halting"
        if plans is None:
            plans = [None] * self.n
        forks = [None] * self.n
        twin, self._twin = self._twin, None
        if twin is not None and all(map(_fastpath.eligible, self.lanes)):
            self._fork(twin, max_steps, plans, forks)
        return LaneSteps(self.run_lane(lane, max_steps, plans[lane],
                                       watchdog_detail, forks[lane])
                         for lane in range(self.n))

    def _fork(self, twin, max_steps: int, plans, forks: list) -> None:
        """Advance ``twin`` through the lanes' first fault steps, seeding
        each lane with its state there.

        Sets ``forks[lane]`` to ``(steps, records, count)`` for a seeded
        lane: the twin's steps so far, and its flight records, of which
        the lane's prefix is the first ``count``.  The twin records the
        memory words it stores through its own ``write_mem``, and its
        flight records into a recorder of its own, which keeps them all
        (a step records at most two events).  A trap that raises in the
        twin leaves the lanes not yet seeded to replay their prefix.
        """
        starts = [max_steps if plan is None
                  else min([max_steps, *(e.step for e in plan.events)])
                  for plan in plans]
        machine = twin.machine
        stored = {}
        store = machine.write_mem

        def write_mem(addr: int, value: int) -> None:
            store(addr, value)
            stored[addr & 0xFFFF] = value & 0xFFFF

        machine.write_mem = write_mem
        ring = _flight.RECORDER
        _flight.RECORDER = recorder = _flight.FlightRecorder(
            capacity=2 * max_steps, enabled=ring.enabled)
        steps = 0
        try:
            for lane in sorted(range(self.n), key=starts.__getitem__):
                if steps < starts[lane] and not machine.halted:
                    try:
                        steps += twin.advance(starts[lane] - steps)
                    except ReproError:
                        break
                if steps:
                    self._seed(lane, twin, stored)
                    forks[lane] = (steps, recorder.events,
                                   len(recorder.events))
        finally:
            _flight.RECORDER = ring
            # The hook refers to the twin: left in place, the cycle would
            # keep every lane's memory mapped until a garbage collection.
            del machine.write_mem

    def _seed(self, lane: int, twin, stored: dict) -> None:
        """Copy ``twin``'s architectural state into ``lane``."""
        sim = self.lanes[lane]
        machine, source = sim.machine, twin.machine
        machine.regs[:] = source.regs
        machine.pc = source.pc
        machine.instret = source.instret
        machine.halted = source.halted
        machine.traps[:] = source.traps
        machine.output[:] = source.output
        machine.qat.regs[:] = source.qat.regs
        if sim.costs is not None:
            sim.cycles = twin.cycles
        for addr, value in stored.items():
            machine.write_mem(addr, value)

    def run_lane(self, lane: int, max_steps: int, plan,
                 watchdog_detail: str, fork: tuple | None = None) -> int:
        """Run one lane to halt under ``plan``; returns its steps.

        A lane forked by :meth:`_fork` (``fork`` is not ``None``) starts
        where it was seeded, first putting its prefix's flight records
        in the ring.  A trap that raises ends the lane with its text in
        :attr:`errors`; the steps of the segment it cut short are not
        counted.
        """
        sim = self.lanes[lane]
        machine = sim.machine
        pipeline = sim if self.pipelined else None
        events = () if plan is None else sorted(plan.events,
                                                key=lambda e: e.step)
        steps = 0
        if fork is not None:
            steps, records, count = fork
            if count:
                ring = _flight.RECORDER
                ring.events.extend(islice(records, count))
                ring._trim()
        try:
            for event in events:
                if event.step >= max_steps:
                    break
                if event.step > steps:
                    steps += sim.advance(event.step - steps)
                if machine.halted:
                    break
                apply_event(machine, event, pipeline=pipeline)
            steps += sim.advance(max_steps - steps)
            if not machine.halted:
                fire_watchdog(machine, watchdog_detail)
        except ReproError as exc:
            self.errors[lane] = str(exc)
        return steps
