"""Shared architectural state of the Tangled/Qat machine.

Tangled: 16 general 16-bit registers, a 16-bit PC, and 64Ki 16-bit words
of memory.  Qat: 256 AoB coprocessor registers of :math:`2^{ways}` bits
each, *no* memory access (paper section 2.2).  The Qat register file is
a pluggable substrate (:mod:`repro.cpu.qat_backend`): the ``dense``
backend keeps one Python int per register so a coprocessor gate is one
bitwise op over every channel (the software rendering of a bit-serial
massively parallel SIMD datapath); the ``re`` backend keeps
run-length compressed :class:`~repro.pattern.PatternVector` registers so
entanglement beyond :data:`~repro.aob.bitvector.MAX_DENSE_WAYS` runs in
bounded memory (paper section 1.2).
"""

from __future__ import annotations

import numpy as np

from repro.aob import AoB
from repro.aob.bitvector import QAT_WAYS
from repro.cpu.fastpath import PredecodeCache
from repro.cpu.qat_backend import make_qat_backend
from repro.errors import SimulatorError
from repro.faults.traps import TrapCause, TrapPolicy, TrapRecord, deliver
from repro.isa.registers import NUM_GPRS
from repro.utils.bits import WORD_BITS

MEM_WORDS = 1 << 16


class MachineState:
    """Registers, memory, PC, and the Qat coprocessor register file."""

    def __init__(self, ways: int = QAT_WAYS, trap_policy: TrapPolicy | None = None,
                 qat_backend="dense"):
        #: the pluggable Qat register substrate (validates ``ways``)
        self.qat = make_qat_backend(qat_backend, ways)
        self.ways = ways
        self.nbits = 1 << ways
        self.regs = np.zeros(NUM_GPRS, dtype=np.uint16)
        self.mem = np.zeros(MEM_WORDS, dtype=np.uint16)
        self.pc = 0
        self.halted = False
        self.output: list[str] = []
        #: dynamic instruction count
        self.instret = 0
        #: trap handling configuration (see :mod:`repro.faults.traps`)
        self.trap_policy = trap_policy if trap_policy is not None else TrapPolicy()
        #: every trap that fired, in order
        self.traps: list[TrapRecord] = []
        #: set by timing simulators so trap records carry the clock
        self.cycle_provider = None
        #: per-machine predecoded-instruction cache
        #: (:class:`repro.cpu.fastpath.PredecodeCache`), the only fetch
        #: path of every scalar simulator
        self._predecode = PredecodeCache()

    def trap(self, cause: TrapCause, detail: str = "",
             instruction: str | None = None, resume_pc: int | None = None,
             service: int | None = None) -> None:
        """Fire an architectural trap (never returns normally)."""
        deliver(self, cause, detail=detail, instruction=instruction,
                resume_pc=resume_pc, service=service)

    # -- GPR access (values are canonical 0..0xFFFF ints) ---------------------

    def read_reg(self, reg: int) -> int:
        """Read a GPR as an unsigned 16-bit pattern."""
        return int(self.regs[reg])

    def read_reg_signed(self, reg: int) -> int:
        """Read a GPR as a signed 16-bit value."""
        value = int(self.regs[reg])
        return value - 0x10000 if value >= 0x8000 else value

    def write_reg(self, reg: int, value: int) -> None:
        """Write a GPR (value truncated to 16 bits)."""
        self.regs[reg] = value & 0xFFFF

    # -- memory ------------------------------------------------------------------

    def read_mem(self, addr: int) -> int:
        """Read one 16-bit memory word."""
        return int(self.mem[addr & 0xFFFF])

    def write_mem(self, addr: int, value: int) -> None:
        """Write one 16-bit memory word.

        Any store may overwrite program text (self-modifying code), so
        the predecoded-instruction cache is precisely invalidated here.
        """
        self.mem[addr & 0xFFFF] = value & 0xFFFF
        self._predecode.invalidate(addr & 0xFFFF)

    def invalidate_predecode(self, addr: int | None = None) -> None:
        """Drop predecoded instructions after a direct ``mem`` mutation.

        Code that bypasses :meth:`write_mem` (fault injection, checkpoint
        restore, tests poking ``machine.mem`` arrays) must call this with
        the touched address, or with no argument to flush everything.
        """
        if addr is None:
            self._predecode.invalidate_all()
        else:
            self._predecode.invalidate(addr & 0xFFFF)

    def load_program(self, words, origin: int = 0) -> None:
        """Copy a program image into memory and point the PC at it."""
        words = np.asarray(
            [int(w) & 0xFFFF for w in words], dtype=np.uint16
        )
        if origin + words.size > MEM_WORDS:
            raise SimulatorError("program image exceeds memory")
        self.mem[origin : origin + words.size] = words
        self.pc = origin
        self._predecode.invalidate_all()

    # -- Qat register access --------------------------------------------------------

    def read_qreg(self, reg: int) -> AoB:
        """Snapshot Qat register ``reg`` as an immutable AoB value."""
        return self.qat.read(reg)

    def write_qreg(self, reg: int, value) -> None:
        """Store an AoB (or PatternVector) value into Qat register ``reg``."""
        if value.ways != self.ways:
            raise SimulatorError(
                f"value is {value.ways}-way but machine is {self.ways}-way"
            )
        self.qat.write(reg, value)

    def flip_qreg_bit(self, reg: int, word: int, bit: int) -> None:
        """Invert one stored bit of Qat register ``reg`` (fault injection).

        ``word``/``bit`` address the packed uint64 layout (channel
        ``word * 64 + bit``); the RE backend translates this into a
        copy-on-write run split so interned chunks are never corrupted.
        Fault events also arrive from outside the program (journals,
        ``--resume``), so a channel outside the register is refused.
        """
        if not (0 <= bit < WORD_BITS and 0 <= word * WORD_BITS + bit < self.nbits):
            raise SimulatorError(
                f"Qat flip (word={word}, bit={bit}) is outside the "
                f"{self.nbits}-channel register"
            )
        self.qat.flip_bit(reg, word, bit)

    def snapshot(self) -> dict:
        """Copy of the architectural state (for equivalence testing)."""
        return {
            "regs": self.regs.copy(),
            "pc": self.pc,
            "mem": self.mem.copy(),
            "qregs": self.qat.snapshot(),
            "qat_backend": self.qat.name,
            "halted": self.halted,
            "output": list(self.output),
            "traps": list(self.traps),
        }
