"""System-call handling for the ``sys`` instruction.

Table 1 specifies ``sys`` with no further detail; this reproduction's
convention (documented in DESIGN.md) is: the service number is taken from
``$rv`` (register 12) --

====== ==========================================
``0``  halt the machine
``1``  print the signed integer in ``$0``
``2``  print the character whose code is in ``$0``
``3``  read the low 16 bits of the cycle counter into ``$0``
``4``  print the 0-terminated string at address ``$0``
====== ==========================================

An unknown service number is an architectural trap
(:data:`~repro.faults.traps.TrapCause.UNKNOWN_SYSCALL`): under the
default policy it raises a typed :class:`~repro.errors.SyscallError`
carrying the service number and the faulting PC; a ``halt`` policy
restores the old silent-stop behaviour and ``vector`` lets a handler
program emulate the service.  Output is accumulated in
``machine.output``.
"""

from __future__ import annotations

from repro.faults.traps import TrapCause
from repro.isa.registers import RV

HALT = 0
PRINT_INT = 1
PRINT_CHAR = 2
READ_CYCLES = 3
PRINT_STRING = 4


class SyscallHandler:
    """Default ``sys`` services; subclass or register to extend."""

    def __init__(self, cycle_source=None):
        self._cycle_source = cycle_source
        self._custom: dict[int, object] = {}

    def register(self, service: int, handler) -> None:
        """Install ``handler(machine)`` for a service number."""
        self._custom[service] = handler

    def handle(self, machine) -> None:
        """Dispatch one ``sys`` instruction on ``machine``."""
        service = machine.read_reg(RV)
        # Flight recorder: machine.pc still addresses the ``sys`` word
        # here in both the observed and the stripped loop.
        from repro.obs import flight as _flight

        if _flight.RECORDER.enabled:
            _flight.RECORDER.note_syscall(machine.pc, service)
        custom = self._custom.get(service)
        if custom is not None:
            custom(machine)
            return
        if service == HALT:
            machine.halted = True
        elif service == PRINT_INT:
            machine.output.append(str(machine.read_reg_signed(0)))
        elif service == PRINT_CHAR:
            machine.output.append(chr(machine.read_reg(0) & 0xFF))
        elif service == READ_CYCLES:
            # A machine without a clock reads 0 rather than faulting: the
            # service exists, the counter simply is not implemented there.
            source = self._cycle_source
            machine.write_reg(0, source() & 0xFFFF if source is not None else 0)
        elif service == PRINT_STRING:
            addr = machine.read_reg(0)
            chars = []
            for _ in range(4096):  # runaway guard
                code = machine.read_mem(addr)
                if code == 0:
                    break
                chars.append(chr(code & 0xFF))
                addr = (addr + 1) & 0xFFFF
            machine.output.append("".join(chars))
        else:
            machine.trap(
                TrapCause.UNKNOWN_SYSCALL,
                detail=f"unknown sys service {service}",
                instruction="sys",
                service=service,
            )
