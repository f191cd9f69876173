"""Process-global telemetry handle with a one-branch hot-path guard.

Instrumented modules (the pipeline, the instruction executor, the Qat
register file, the chunk store) must cost ~nothing when observability is off.
They therefore guard every hook with the module-level :data:`active`
flag::

    from repro.obs import runtime as _obs
    ...
    if _obs.active:                       # one attribute read + branch
        _obs.current().metrics.counter("...").inc()

``active`` is True exactly while a telemetry instance with
``enabled=True`` is installed.  This module imports nothing from the
rest of ``repro`` so any layer may instrument itself without cycles.
"""

from __future__ import annotations

#: Fast guard: is an enabled telemetry instance installed?
active: bool = False

_current = None


def current():
    """The installed telemetry instance, or None."""
    return _current


def install(telemetry) -> None:
    """Route instrumented code into ``telemetry`` (None to uninstall)."""
    global _current, active
    _current = telemetry
    active = telemetry is not None and getattr(telemetry, "enabled", False)


def uninstall() -> None:
    """Detach the current telemetry instance; hooks go quiet again."""
    install(None)
