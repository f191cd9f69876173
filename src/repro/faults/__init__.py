"""Robustness layer: architectural traps, fault injection, checkpointing.

Three cooperating pieces:

- :mod:`repro.faults.traps` -- the trap model shared by all three CPU
  simulators (causes, per-cause policies, trap records, delivery).
- :mod:`repro.faults.inject` -- deterministic seeded bit flips against
  architectural state plus gate-level stuck-at plans.
- :mod:`repro.faults.checkpoint` -- integrity-checked snapshot/restore
  of full machine state with periodic auto-checkpointing.

Campaign orchestration (:mod:`repro.faults.campaign`) and checkpoints
are re-exported lazily: the first imports :mod:`repro.cpu`, which imports
the trap model from this package, and the second imports numpy.
"""

from importlib import import_module

from repro.faults.inject import (
    TARGETS,
    FaultEvent,
    FaultPlan,
    apply_event,
    stuck_at_plan,
)
from repro.faults.traps import (
    TrapAction,
    TrapCause,
    TrapDelivered,
    TrapPolicy,
    TrapRecord,
)

_LAZY_EXPORTS = {"golden_run": "campaign", "render_report": "campaign",
                 "run_campaign": "campaign",
                 "AutoCheckpointer": "checkpoint", "Checkpoint": "checkpoint",
                 "FORMAT_VERSION": "checkpoint"}

__all__ = [
    "AutoCheckpointer",
    "Checkpoint",
    "FORMAT_VERSION",
    "FaultEvent",
    "FaultPlan",
    "TARGETS",
    "TrapAction",
    "TrapCause",
    "TrapDelivered",
    "TrapPolicy",
    "TrapRecord",
    "apply_event",
    "golden_run",
    "render_report",
    "run_campaign",
    "stuck_at_plan",
]


def __getattr__(name: str):
    if name in _LAZY_EXPORTS:
        return getattr(import_module(f"{__name__}.{_LAZY_EXPORTS[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
