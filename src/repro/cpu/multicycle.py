"""Multi-cycle timing model (the students' first implementation project).

The functional simulator plus :class:`CycleCosts`: a configurable number
of cycles per instruction class, the way a classic multi-cycle
(non-pipelined) implementation would charge them: every instruction pays
fetch + decode + execute + writeback, memory operations and multiply pay
extra state cycles, and two-word Qat instructions pay an extra fetch.

The default costs are a plausible rendering of the course design (the
paper reports team scores, not cycle tables, for the multi-cycle project)
and are swappable for sensitivity studies.

:class:`MultiCycleSimulator` subclasses
:class:`~repro.cpu.functional.FunctionalSimulator` and inherits its
loading, :meth:`~repro.cpu.functional.FunctionalSimulator.advance` and
``run()``.  Its :meth:`~MultiCycleSimulator.step` charges each
instruction's cycles (and attributes them to a profiler) on top of the
functional step; an unobserved run takes the stripped loop
(:func:`repro.cpu.fastpath.run_functional`) with the same costs,
translated tier included: a translated block charges the sum of its
instructions' cycles when it retires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aob.bitvector import QAT_WAYS
from repro.cpu import fastpath as _fastpath
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.syscalls import SyscallHandler
from repro.errors import HaltedError
from repro.faults.traps import TrapPolicy
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


class MultiCycleSimulator(FunctionalSimulator):
    """The functional simulator plus a per-instruction cycle charge."""

    name = "multicycle"

    def __init__(
        self,
        ways: int = QAT_WAYS,
        costs: CycleCosts | None = None,
        syscalls: SyscallHandler | None = None,
        trap_policy: TrapPolicy | None = None,
        qat_backend="dense",
    ):
        super().__init__(ways, syscalls=syscalls, trap_policy=trap_policy,
                         qat_backend=qat_backend)
        self.costs = costs or CycleCosts()
        self.cycles = 0
        self.machine.cycle_provider = lambda: self.cycles
        #: optional :class:`repro.obs.profile.Profiler`; every cycle
        #: charged by :meth:`step` is attributed to a PC and reason.
        self.profiler = None

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
            effects = super().step()
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
        """Run to halt like :meth:`FunctionalSimulator.run`; returns total
        cycles."""
        super().run(max_steps)
        return self.cycles

    @property
    def cpi(self) -> float:
        """Cycles per instruction so far."""
        if self.machine.instret == 0:
            return 0.0
        return self.cycles / self.machine.instret
