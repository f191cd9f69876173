"""Functional (instruction-accurate, untimed) simulator.

Executes one instruction per step with no timing, like the paper's
Figure 6 single-cycle datapath.  Each instruction runs its handler from
:data:`repro.cpu.exec_core.FAST_HANDLERS`, the one table of ISA
semantics, through one of two loops: the observed loop (:meth:`step`,
via :func:`~repro.cpu.exec_core.execute`) whenever telemetry, a trace,
a checkpointer, or a profiler is attached, and otherwise the stripped
loop :func:`repro.cpu.fastpath.run_functional`.  The lanes of a batch
(:mod:`repro.cpu.batch`) are instances of this simulator, and the
timing models are checked against it on random programs.

Abnormal events route through the trap model
(:mod:`repro.faults.traps`): an undecodable word is an
``illegal_opcode`` trap, a blown step budget is a ``watchdog`` trap.
Under the default ``raise`` policy both surface as
:class:`~repro.errors.TrapError` with PC/instruction context; a ``halt``
or ``vector`` policy lets execution stop cleanly or continue in a
trap-handler program.
"""

from __future__ import annotations

from repro.aob.bitvector import QAT_WAYS
from repro.cpu import fastpath as _fastpath
from repro.cpu.exec_core import TRAP_MNEMONIC, Effects, execute
from repro.cpu.state import MachineState
from repro.cpu.syscalls import SyscallHandler
from repro.errors import HaltedError
from repro.faults.traps import (TrapCause, TrapDelivered, TrapPolicy,
                               fire_watchdog)
from repro.obs import runtime as _obs
from repro.obs.spans import NULL_SPAN


class FunctionalSimulator:
    """Executes a program image one instruction at a time."""

    def __init__(
        self,
        ways: int = QAT_WAYS,
        syscalls: SyscallHandler | None = None,
        trace=None,
        trap_policy: TrapPolicy | None = None,
        qat_backend="dense",
    ):
        self.machine = MachineState(ways, trap_policy=trap_policy,
                                    qat_backend=qat_backend)
        self.syscalls = syscalls if syscalls is not None else SyscallHandler()
        self.trace = trace
        #: optional :class:`repro.faults.checkpoint.AutoCheckpointer`
        self.checkpointer = None

    def load(self, program, origin: int | None = None) -> None:
        """Load an assembled :class:`~repro.asm.Program` (or raw words)."""
        words = getattr(program, "words", program)
        entry = getattr(program, "entry", 0) if origin is None else origin
        self.machine.load_program(words, origin=0 if origin is None else origin)
        self.machine.pc = entry

    def _trapped_effects(self) -> Effects:
        """Synthetic effects for an instruction consumed by a trap."""
        return Effects(mnemonic=TRAP_MNEMONIC, next_pc=self.machine.pc)

    def step(self) -> Effects:
        """Fetch (through the predecode cache) and execute one instruction.

        An instruction that traps under the halt/vector policy returns a
        synthetic :class:`Effects` with mnemonic ``"trap"``; under the
        default policy the typed error propagates.
        """
        machine = self.machine
        if machine.halted:
            raise HaltedError("machine is halted", pc=machine.pc)
        pc = machine.pc
        entry = _fastpath.cache_for(machine).lookup(machine.mem, pc)
        instr = entry.instr
        if instr is None:
            try:
                machine.trap(TrapCause.ILLEGAL_OPCODE, detail=entry.error)
            except TrapDelivered:
                return self._trapped_effects()
        try:
            effects = execute(machine, instr, self.syscalls)
        except TrapDelivered:
            return self._trapped_effects()
        if self.trace is not None:
            self.trace.record(pc, instr, effects, machine)
        return effects

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run until ``sys``-halt; returns instructions executed.

        Fires a ``watchdog`` trap if the step budget is exhausted
        (runaway program) -- a :class:`~repro.errors.TrapError` under the
        default policy.  When telemetry is installed (``repro.obs``) the
        run is wrapped in a ``cpu.run`` span and the retired instruction
        count lands on the ``cpu.instructions`` counter.  An attached
        :class:`~repro.faults.checkpoint.AutoCheckpointer` snapshots the
        machine periodically so a watchdog expiry is recoverable.

        With no observer attached the stripped loop in
        :mod:`repro.cpu.fastpath` runs the same handlers instead.
        """
        machine = self.machine
        if _fastpath.eligible(self):
            steps = _fastpath.run_functional(self, max_steps)
        else:
            telemetry = _obs.current() if _obs.active else None
            steps = 0
            checkpointer = self.checkpointer
            with (telemetry.span("cpu.run", cat="cpu", sim="functional")
                  if telemetry is not None else NULL_SPAN):
                while steps < max_steps and not machine.halted:
                    self.step()
                    steps += 1
                    if checkpointer is not None:
                        checkpointer.tick(machine)
            if telemetry is not None:
                telemetry.metrics.counter("cpu.instructions").add(steps)
        if not machine.halted:
            fire_watchdog(machine,
                          f"exceeded {max_steps} steps without halting")
        return steps
