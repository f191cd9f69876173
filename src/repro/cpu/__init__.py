"""CPU simulators for the Tangled/Qat processor.

Three models of increasing timing fidelity, all sharing one architectural
state (:class:`~repro.cpu.state.MachineState`) and one table of
instruction semantics (:data:`repro.cpu.exec_core.FAST_HANDLERS`), run
by the observed step :func:`~repro.cpu.exec_core.execute` and, when
nothing observes a ``run()``, by a stripped loop
(:func:`repro.cpu.fastpath.run_functional`, or the pipeline's own
scoreboard-timed loop).  The
models mirror the course's project sequence (multi-cycle design, then
pipelined, then pipelined with Qat):

- :class:`~repro.cpu.functional.FunctionalSimulator` -- one instruction
  per step, no timing; the reference for architectural correctness
  (paper Figure 6's simplified single-cycle design).
- :class:`~repro.cpu.multicycle.MultiCycleSimulator` -- per-class cycle
  costs, the students' first implementation project.
- :class:`~repro.cpu.pipeline.PipelinedSimulator` -- a cycle-stepped
  4- or 5-stage pipeline with RAW interlocks, optional forwarding,
  branch flushes, and the two-word Qat fetch penalty the paper says
  generated "the most common student questions"; unobserved runs
  replay its timing exactly without stepping the latches.

:class:`~repro.cpu.batch.BatchFunctionalSimulator`, the engine behind
``tangled faults --batch N``, adds no semantics of its own: it loads one
image into N functional machines ("lanes") and runs them one after
another on the stripped loop, sharing the predecoded image and, on the
``re`` backend, one chunk store and gate memo.

All three take a ``trap_policy`` (:class:`~repro.faults.TrapPolicy`)
controlling whether architectural traps raise, halt, or vector to a
handler; the trap model itself lives in :mod:`repro.faults` and is
re-exported here for convenience.  They also take a ``qat_backend``
(``"dense"`` or ``"re"``) selecting the Qat register substrate -- see
:mod:`repro.cpu.qat_backend`.
"""

from repro.cpu.batch import BatchFunctionalSimulator
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.multicycle import CycleCosts, MultiCycleSimulator
from repro.cpu.pipeline import PipelineConfig, PipelinedSimulator, PipelineStats
from repro.cpu.qat_backend import (
    BACKENDS,
    MAX_RE_WAYS,
    DenseQatBackend,
    QatBackend,
    REQatBackend,
    make_qat_backend,
)
from repro.cpu.state import MachineState
from repro.cpu.syscalls import SyscallHandler
from repro.faults.traps import TrapAction, TrapCause, TrapPolicy, TrapRecord

__all__ = [
    "BACKENDS",
    "BatchFunctionalSimulator",
    "CycleCosts",
    "DenseQatBackend",
    "FunctionalSimulator",
    "MAX_RE_WAYS",
    "MachineState",
    "MultiCycleSimulator",
    "PipelineConfig",
    "PipelineStats",
    "PipelinedSimulator",
    "QatBackend",
    "REQatBackend",
    "SyscallHandler",
    "TrapAction",
    "TrapCause",
    "TrapPolicy",
    "TrapRecord",
    "make_qat_backend",
]
