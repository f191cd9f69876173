"""Architectural trap model for the Tangled/Qat simulators.

Real pipelined processors define what happens when things go wrong; this
module gives the reproduction the same precision.  Every abnormal event a
simulator can hit is a :class:`TrapCause`; when one fires, the machine
records a :class:`TrapRecord` (cause, PC, disassembled instruction,
cycle) and then acts according to the per-cause :class:`TrapPolicy`:

``raise``
    Raise a typed :class:`~repro.errors.TrapError` (or
    :class:`~repro.errors.SyscallError` for unknown services) carrying
    the record.  This is the default and matches the historical
    behaviour of the simulators, now with full machine context.
``halt``
    Stop the machine cleanly (``machine.halted = True``); the record is
    available on ``machine.traps`` for post-mortem inspection.
``vector``
    Jump to a configured handler address, writing the trap cause code
    and the resume PC into two conventional GPRs first -- enough to
    write trap-handler programs in Tangled assembly that catch a fault
    and resume.

Delivery uses a private control-flow exception
(:class:`TrapDelivered`) so an instruction that faults mid-execution is
aborted precisely: no partial architectural update completes after the
trap point.  The simulators catch it; user code only ever sees
:class:`~repro.errors.TrapError`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import SyscallError, TrapError


class TrapCause(enum.Enum):
    """Why a trap fired.  ``code`` is the value a vectored handler sees."""

    ILLEGAL_OPCODE = "illegal_opcode"
    MEM_FAULT = "mem_fault"
    UNKNOWN_SYSCALL = "unknown_syscall"
    QAT_FAULT = "qat_fault"
    BF16_FAULT = "bf16_fault"
    WATCHDOG = "watchdog"

    @property
    def code(self) -> int:
        """Numeric cause code delivered to vectored trap handlers."""
        return _CAUSE_CODES[self]


_CAUSE_CODES = {
    TrapCause.ILLEGAL_OPCODE: 1,
    TrapCause.MEM_FAULT: 2,
    TrapCause.UNKNOWN_SYSCALL: 3,
    TrapCause.QAT_FAULT: 4,
    TrapCause.BF16_FAULT: 5,
    TrapCause.WATCHDOG: 6,
}


class TrapAction(enum.Enum):
    """What the machine does when a given cause fires."""

    RAISE = "raise"
    HALT = "halt"
    VECTOR = "vector"


@dataclass(frozen=True)
class TrapRecord:
    """One trap, as recorded on ``machine.traps``."""

    cause: TrapCause
    pc: int
    instruction: str | None  #: disassembled text, None if undecodable
    cycle: int | None  #: timing-model clock, None on the functional sim
    instret: int  #: dynamic instruction count at the fault
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-ready rendering (used by campaign reports)."""
        return {
            "cause": self.cause.value,
            "pc": self.pc,
            "instruction": self.instruction,
            "cycle": self.cycle,
            "instret": self.instret,
            "detail": self.detail,
        }

    def describe(self) -> str:
        parts = [f"trap {self.cause.value} at pc={self.pc:#06x}"]
        if self.instruction is not None:
            parts.append(f"instr={self.instruction!r}")
        if self.cycle is not None:
            parts.append(f"cycle={self.cycle}")
        if self.detail:
            parts.append(self.detail)
        return ", ".join(parts)


@dataclass
class TrapPolicy:
    """Per-cause trap handling configuration.

    ``actions`` overrides the ``default`` action per cause; ``handlers``
    gives a vectored cause its handler address (falling back to
    ``vector_base``).  On a vectored trap the machine writes
    ``cause.code`` into GPR ``cause_reg`` and the resume address into
    GPR ``epc_reg`` before jumping, so a handler can dispatch on the
    cause and resume with ``jumpr``.

    Detection knobs (all default to the historical lenient semantics):

    - ``mem_fence`` -- when set, loads/stores at addresses >= the fence
      raise :data:`TrapCause.MEM_FAULT` (a protected region at the top
      of the 64Ki-word memory).
    - ``strict_qat`` -- ``meas``/``next``/``pop`` channel operands at or
      above the AoB length, and ``had`` with ``k >= ways``, raise
      :data:`TrapCause.QAT_FAULT` instead of wrapping/zeroing.
    - ``trap_bf16`` -- ``addf``/``mulf``/``recip`` results that are NaN
      or infinite raise :data:`TrapCause.BF16_FAULT` instead of
      propagating the IEEE special value.
    """

    default: TrapAction = TrapAction.RAISE
    actions: dict[TrapCause, TrapAction] = field(default_factory=dict)
    vector_base: int = 0x0010
    handlers: dict[TrapCause, int] = field(default_factory=dict)
    cause_reg: int = 13
    epc_reg: int = 14
    mem_fence: int | None = None
    strict_qat: bool = False
    trap_bf16: bool = False

    def action_for(self, cause: TrapCause) -> TrapAction:
        return self.actions.get(cause, self.default)

    def handler_for(self, cause: TrapCause) -> int:
        return self.handlers.get(cause, self.vector_base) & 0xFFFF

    @classmethod
    def halting(cls, **overrides) -> "TrapPolicy":
        """Policy that stops the machine cleanly on every trap."""
        return cls(default=TrapAction.HALT, **overrides)

    @classmethod
    def vectored(cls, base: int, **overrides) -> "TrapPolicy":
        """Policy that vectors every trap to a handler at ``base``."""
        return cls(default=TrapAction.VECTOR, vector_base=base, **overrides)


class TrapDelivered(Exception):
    """Internal control flow: a trap was handled by halt/vector policy.

    Raised by :func:`deliver` after the machine state has been updated
    (halted flag set, or PC redirected to the handler).  The simulators
    catch this to abort the faulting instruction; it must never escape
    to user code.
    """

    def __init__(self, record: TrapRecord):
        self.record = record
        super().__init__(record.describe())


def deliver(machine, cause: TrapCause, detail: str = "",
            instruction: str | None = None, resume_pc: int | None = None,
            service: int | None = None) -> None:
    """Fire a trap on ``machine``.  Never returns normally.

    Under the ``raise`` policy this raises :class:`TrapError` (or
    :class:`SyscallError` when ``service`` is given); under ``halt`` and
    ``vector`` it updates the machine and raises :class:`TrapDelivered`
    for the owning simulator to catch.
    """
    policy = machine.trap_policy
    cycle = machine.cycle_provider() if machine.cycle_provider is not None else None
    record = TrapRecord(
        cause=cause,
        pc=machine.pc,
        instruction=instruction,
        cycle=cycle,
        instret=machine.instret,
        detail=detail,
    )
    machine.traps.append(record)

    from repro.obs import flight as _flight
    from repro.obs import runtime as _obs

    if _flight.RECORDER.enabled:
        _flight.RECORDER.note_trap(record.pc, cause.value, cycle,
                                   record.instret, detail)
    if _obs.active:
        _obs.current().metrics.counter(f"traps.{cause.value}").inc()

    action = policy.action_for(cause)
    if action is TrapAction.RAISE:
        message = detail or f"trap: {cause.value}"
        context = {"pc": record.pc, "cycle": cycle, "instruction": instruction}
        if service is not None:
            raise SyscallError(message, service=service, record=record, **context)
        raise TrapError(message, record=record, **context)
    if action is TrapAction.HALT:
        machine.halted = True
        raise TrapDelivered(record)
    # VECTOR: hand control to the handler, like a real precise trap.
    if resume_pc is None:
        resume_pc = (machine.pc + 1) & 0xFFFF
    machine.write_reg(policy.cause_reg, cause.code)
    machine.write_reg(policy.epc_reg, resume_pc)
    machine.pc = policy.handler_for(cause)
    raise TrapDelivered(record)


def fire_watchdog(machine, detail: str) -> None:
    """Fire the ``watchdog`` trap on a machine whose step budget ran out.

    A ``halt`` or ``vector`` action returns normally: either way the
    run that spent its budget stops stepping.
    """
    try:
        deliver(machine, TrapCause.WATCHDOG, detail=detail)
    except TrapDelivered:
        pass
