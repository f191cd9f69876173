"""Hardened job-execution substrate for the ``--jobs`` fan-outs.

The fault-campaign runner shards pure tasks across worker processes.  :mod:`repro.runtime.supervisor` owns the part the raw
``multiprocessing.Pool`` never did: per-shard wall-clock deadlines with
hung-worker kill-and-replace, bounded retry with exponential backoff,
poison-shard quarantine, opt-in per-worker memory ceilings, and the
failure/recovery counters the telemetry taxonomy and run ledger record.
"""

from repro.runtime.supervisor import (
    Supervisor,
    SupervisorConfig,
    SupervisorInterrupted,
    SupervisorStats,
    ShardOutcome,
    chaos_hook,
)

__all__ = [
    "Supervisor",
    "SupervisorConfig",
    "SupervisorInterrupted",
    "SupervisorStats",
    "ShardOutcome",
    "chaos_hook",
]
