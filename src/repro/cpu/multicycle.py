"""Multi-cycle timing model (the students' first implementation project).

Architecturally identical to the functional simulator, but charges a
configurable number of cycles per instruction class, the way a classic
multi-cycle (non-pipelined) implementation would: every instruction pays
fetch + decode + execute + writeback, memory operations and multiply pay
extra state cycles, and two-word Qat instructions pay an extra fetch.

The default costs are a plausible rendering of the course design (the
paper reports team scores, not cycle tables, for the multi-cycle project)
and are swappable for sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aob.bitvector import QAT_WAYS
from repro.cpu import fastpath as _fastpath
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.syscalls import SyscallHandler
from repro.errors import HaltedError, SimulatorError
from repro.faults.traps import TrapPolicy, fire_watchdog
from repro.isa.instructions import INSTRUCTIONS


@dataclass(frozen=True)
class CycleCosts:
    """Cycles charged per instruction category."""

    alu: int = 3  # fetch, decode/read, execute+writeback
    fpu: int = 3
    mul: int = 4  # extra execute state for the 16-bit multiplier
    mem: int = 4  # extra memory-access state
    branch: int = 3
    jump: int = 3
    sys: int = 3
    qat: int = 3
    qmeas: int = 3
    extra_fetch_word: int = 1  # each instruction word beyond the first

    def cycles_for(self, mnemonic: str) -> int:
        spec = INSTRUCTIONS.get(mnemonic)
        if spec is None:
            # Synthetic "trap" effects: charge the exception-entry cost.
            return self.sys
        base = getattr(self, spec.category)
        return base + (spec.words - 1) * self.extra_fetch_word

    def breakdown(self, mnemonic: str) -> list[tuple[str, int]]:
        """``[(profiler reason, cycles), ...]`` summing to :meth:`cycles_for`.

        The universal fetch/decode/execute+writeback states are ``issue``;
        extra memory-access states are ``memory``; extra execute states
        (the multiplier's) are ``structural``; each instruction word past
        the first is ``fetch``; a trap charges its entry cost as ``flush``.
        """
        spec = INSTRUCTIONS.get(mnemonic)
        if spec is None:
            return [("flush", self.sys)]
        base = getattr(self, spec.category)
        issue = min(base, self.alu)
        parts = [("issue", issue)]
        if base > issue:
            parts.append(
                ("memory" if spec.category == "mem" else "structural",
                 base - issue)
            )
        fetch = (spec.words - 1) * self.extra_fetch_word
        if fetch:
            parts.append(("fetch", fetch))
        return parts


class MultiCycleSimulator:
    """Functional execution plus a per-instruction cycle charge."""

    def __init__(
        self,
        ways: int = QAT_WAYS,
        costs: CycleCosts | None = None,
        syscalls: SyscallHandler | None = None,
        trap_policy: TrapPolicy | None = None,
        qat_backend="dense",
    ):
        self.costs = costs or CycleCosts()
        self.cycles = 0
        self._inner = FunctionalSimulator(
            ways=ways, syscalls=syscalls, trap_policy=trap_policy,
            qat_backend=qat_backend,
        )
        self.machine.cycle_provider = lambda: self.cycles
        #: optional :class:`repro.obs.profile.Profiler`; every cycle
        #: charged by :meth:`step` is attributed to a PC and reason.
        self.profiler = None

    @property
    def machine(self):
        return self._inner.machine

    @property
    def syscalls(self):
        return self._inner.syscalls

    @property
    def checkpointer(self):
        return self._inner.checkpointer

    @checkpointer.setter
    def checkpointer(self, value) -> None:
        self._inner.checkpointer = value

    def load(self, program, origin: int | None = None) -> None:
        """Load an assembled program image."""
        self._inner.load(program, origin)
        self.cycles = 0

    def step(self) -> int:
        """Execute one instruction; returns the cycles it cost."""
        machine = self.machine
        if machine.halted:
            raise HaltedError("machine is halted", pc=machine.pc,
                              cycle=self.cycles)
        prof = self.profiler
        pc = machine.pc
        if prof is not None:
            # Label with the word that executes, not whatever a store
            # leaves behind at ``pc``.
            instr = _fastpath.cache_for(machine).lookup(machine.mem, pc).instr
            prof.current_pc = pc
        try:
            effects = self._inner.step()
        finally:
            if prof is not None:
                prof.current_pc = None
        cost = self.costs.cycles_for(effects.mnemonic)
        self.cycles += cost
        if prof is not None:
            for reason, cycles in self.costs.breakdown(effects.mnemonic):
                prof.attribute(pc, reason, cycles=cycles, instr=instr)
        return cost

    def run(self, max_steps: int = 1_000_000) -> int:
        """Run to halt; returns total cycles.

        A blown step budget fires a ``watchdog`` trap -- a
        :class:`~repro.errors.SimulatorError` under the default policy,
        a clean stop under ``halt``.

        With no observer attached (no profiler, trace, checkpointer, or
        telemetry) the stripped loop in :mod:`repro.cpu.fastpath` runs
        instead, charging the same :class:`CycleCosts`.
        """
        machine = self.machine
        if _fastpath.eligible(self):
            _fastpath.run_functional(self, max_steps, costs=self.costs)
        else:
            steps = 0
            checkpointer = self._inner.checkpointer
            while steps < max_steps and not machine.halted:
                self.step()
                steps += 1
                if checkpointer is not None:
                    checkpointer.tick(machine)
        if not machine.halted:
            fire_watchdog(machine,
                          f"exceeded {max_steps} steps without halting")
        return self.cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction so far."""
        if self.machine.instret == 0:
            return 0.0
        return self.cycles / self.machine.instret
