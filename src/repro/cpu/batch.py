"""Fault-campaign batches: N scalar machines over one program image.

``tangled faults --batch N`` packs N faulted runs of one program into a
:class:`BatchFunctionalSimulator`.  Each lane is a plain
:class:`~repro.cpu.functional.FunctionalSimulator`, and the lanes run one
after another through the stripped loop
:func:`repro.cpu.fastpath.run_functional` -- the same handlers, trap
delivery, syscalls and flight-recorder retire events as every other
engine.  A lane's fault events are applied between segments of that
loop (:func:`repro.faults.inject.apply_event`), after exactly as many
steps as the serial campaign driver applies them.

What the lanes of a batch share:

- the loaded image, predecoded once: every lane starts from a copy of
  the same predecode entries;
- on the ``re`` backend, one chunk store and one operand-identity gate
  memo (:class:`~repro.cpu.qat_backend.SharedREStore`), so each distinct
  gate runs once per batch.  Dense lanes keep private register files.

A lane whose trap raises under the default policy stops there, with the
error's text in :attr:`BatchFunctionalSimulator.errors`; the other lanes
still run.  ``tests/test_batch.py`` holds lanes to serial runs and
``tests/conformance.py`` holds every lane to the oracle.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.aob.bitvector import QAT_WAYS
from repro.cpu import fastpath as _fastpath
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.qat_backend import REQatBackend, SharedREStore
from repro.cpu.state import MEM_WORDS
from repro.errors import ReproError, SimulatorError
from repro.faults.inject import apply_event
from repro.faults.traps import TrapPolicy, fire_watchdog


class BatchFunctionalSimulator:
    """``n`` functional machines loaded with one image, run lane by lane."""

    def __init__(self, n: int, ways: int = QAT_WAYS,
                 trap_policy: TrapPolicy | None = None,
                 qat_backend="dense"):
        if n <= 0:
            raise SimulatorError(f"batch size must be positive, got {n}")
        shared = SharedREStore(ways) if qat_backend == "re" else None
        # Lane memories are rows of one anonymous mapping, whose pages the
        # kernel zero-fills on first touch: a lane's resident memory is
        # the few pages it writes.  (``np.zeros`` would ask for huge
        # pages at this size, so loading the image would zero 2 MiB per
        # 16 lanes.)
        block = np.frombuffer(mmap.mmap(-1, n * MEM_WORDS * 2),
                              dtype=np.uint16).reshape(n, MEM_WORDS)
        self.lanes = []
        for mem in block:
            lane = FunctionalSimulator(
                ways, trap_policy=trap_policy,
                qat_backend=(qat_backend if shared is None
                             else REQatBackend(ways, shared=shared)))
            lane.machine.mem = mem
            self.lanes.append(lane)
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
        for lane in self.lanes[1:]:
            lane.machine.mem[start:end] = image
            lane.machine.pc = machine.pc
            _fastpath.cache_for(lane.machine).entries = dict(cache.entries)

    def run(self, max_steps: int = 1_000_000, plans=None,
            watchdog_detail: str | None = None) -> np.ndarray:
        """Run every lane to halt; returns per-lane step counts.

        ``plans`` (optional: one :class:`~repro.faults.inject.FaultPlan`
        or ``None`` per lane) injects each lane's events after as many
        steps as ``event.step`` says, exactly where the campaign driver
        does.  A lane still running after ``max_steps`` steps takes the
        ``watchdog`` trap; ``watchdog_detail`` lets the campaign runner
        supply its serial detail string.
        """
        if plans is not None and len(plans) != self.n:
            raise SimulatorError(
                f"got {len(plans)} fault plans for {self.n} lanes"
            )
        if watchdog_detail is None:
            watchdog_detail = f"exceeded {max_steps} steps without halting"
        return np.array(
            [self.run_lane(lane, max_steps,
                           None if plans is None else plans[lane],
                           watchdog_detail)
             for lane in range(self.n)],
            dtype=np.int64,
        )

    def run_lane(self, lane: int, max_steps: int, plan,
                 watchdog_detail: str) -> int:
        """Run one lane to halt under ``plan``; returns its steps.

        A trap that raises ends the lane with its text in
        :attr:`errors`; the steps of the segment it cut short are not
        counted.
        """
        sim = self.lanes[lane]
        machine = sim.machine
        events = () if plan is None else sorted(plan.events,
                                                key=lambda e: e.step)
        steps = 0
        try:
            for event in events:
                if event.step >= max_steps:
                    break
                steps += _fastpath.run_functional(sim, event.step - steps)
                if machine.halted:
                    break
                apply_event(machine, event)
            steps += _fastpath.run_functional(sim, max_steps - steps)
            if not machine.halted:
                fire_watchdog(machine, watchdog_detail)
        except ReproError as exc:
            self.errors[lane] = str(exc)
        return steps
