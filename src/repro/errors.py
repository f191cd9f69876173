"""Exception hierarchy for the Tangled/Qat reproduction.

Every error raised by the package derives from :class:`ReproError` so
callers can catch package failures with a single ``except`` clause.

Simulator-side errors carry machine context (``pc``, ``cycle`` and the
disassembled instruction) so a fault report reads like a processor trap
frame, not a bare Python message.  The precise trap model built on top of
these lives in :mod:`repro.faults.traps`.
"""

from __future__ import annotations

# ---------------------------------------------------------------------------
# Process exit-status taxonomy
# ---------------------------------------------------------------------------
#
# One documented home for every exit code the ``tangled`` CLI (and the
# subsystems behind it) can produce, so scripts and CI jobs gate on
# names, not magic numbers.  ``cli.py`` imports these -- a test asserts
# no literal exit codes remain there.

#: Success.
EXIT_OK = 0
#: Generic failure: a :class:`ReproError`, OS error, or bad arguments.
EXIT_FAILURE = 1
#: (2 is argparse's own exit status for a command-line usage error.)
#: Supervised fan-out: the whole run was dominated by shard deadline
#: kills (every failure was a timeout).
EXIT_TIMEOUT = 3
#: Supervised fan-out: at least one shard exhausted its retry budget
#: and was quarantined as toxic (its blackbox, when collected, is
#: linked in the run ledger's artifacts).
EXIT_TOXIC_SHARDS = 4
#: Interrupted by Ctrl-C (the conventional ``128 + SIGINT``).
EXIT_INTERRUPTED = 130


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class EntanglementError(ReproError):
    """Mismatched or out-of-range entanglement ways / channels."""


class ChannelExhaustedError(EntanglementError):
    """A PBP context ran out of free entanglement-channel sets."""


class AssemblerError(ReproError):
    """Syntax or semantic error while assembling Tangled/Qat source."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodingError(ReproError):
    """Instruction cannot be encoded or decoded (bad operand / opcode)."""


class SimulatorError(ReproError):
    """Runtime fault inside one of the CPU simulators.

    Carries the architectural context of the fault when the raiser knows
    it: ``pc`` (address of the faulting instruction), ``cycle`` (timing
    model's clock, None on the untimed functional simulator) and
    ``instruction`` (disassembled text).  The context is appended to the
    message so it survives plain ``str()`` rendering.
    """

    def __init__(
        self,
        message: str,
        *,
        pc: int | None = None,
        cycle: int | None = None,
        instruction: str | None = None,
    ):
        self.pc = pc
        self.cycle = cycle
        self.instruction = instruction
        context = []
        if pc is not None:
            context.append(f"pc={pc:#06x}")
        if cycle is not None:
            context.append(f"cycle={cycle}")
        if instruction is not None:
            context.append(f"instr={instruction!r}")
        if context:
            message = f"{message} [{', '.join(context)}]"
        super().__init__(message)


class HaltedError(SimulatorError):
    """Execution was requested on a machine that has already halted."""


class TrapError(SimulatorError):
    """An architectural trap fired under the ``raise`` policy.

    ``record`` is the :class:`repro.faults.traps.TrapRecord` describing
    the cause, faulting PC, instruction and cycle.
    """

    def __init__(self, message: str, record=None, **context):
        self.record = record
        super().__init__(message, **context)


class SyscallError(TrapError):
    """A ``sys`` instruction named an unknown service number."""

    def __init__(self, message: str, service: int, record=None, **context):
        self.service = service
        super().__init__(message, record=record, **context)


class SupervisorError(ReproError):
    """The supervised worker pool cannot proceed.

    Raised for invalid supervision config (non-positive jobs, timeout,
    or memory ceiling), a resume request whose journaled fingerprint
    does not match the current arguments, and a pool whose workers die
    faster than shards complete (e.g. an initializer that cannot
    allocate under the ``RLIMIT_AS`` ceiling).  Per-shard failures are
    *not* errors: they are retried and, at worst, quarantined as toxic
    shards in the report.
    """


class CheckpointError(ReproError):
    """A machine checkpoint failed integrity verification or is unusable."""


class MeasurementError(ReproError):
    """Invalid measurement request (e.g. channel out of range)."""


class CircuitError(ReproError):
    """Malformed gate circuit (dangling node, wrong arity, ...)."""
