"""Live progress for the ``--jobs`` fan-out: per-worker heartbeats.

The fault-campaign runner shards its work across a
``multiprocessing.Pool`` and merges the results back into byte-identical
reports.  That determinism guarantee means the *reports* can never say
how the fan-out is going -- so this module watches it from the side.

A :class:`ProgressTracker` lives in the **parent** process.  Every time
a sharded item (one faulted run) completes, the runner
calls :meth:`ProgressTracker.note` with the worker that produced it and
the item's wall seconds; the tracker treats each completion as that
worker's heartbeat and maintains

- overall completion (``done/total``), throughput, and an ETA;
- per-worker tallies: items completed, busy seconds, steps executed,
  steps/sec;
- **straggler flagging**: a worker whose completed-item count has
  fallen more than :data:`STRAGGLER_FACTOR` x behind the median worker
  is named in the status line (a wedged or oversubscribed worker shows
  up long before the pool drains).

Rendering is a single periodic stderr status line (throttled to one
line per ``interval`` seconds), and :meth:`publish` turns the final
per-worker state into ``progress.worker.<id>.*`` gauges on a telemetry
instance -- the run ledger records those gauges with the invocation,
which is how a recorded campaign remembers how its fan-out behaved.

None of this touches the merged report dicts: two identical campaigns,
one with progress enabled and one without, still serialize to the same
bytes.  When telemetry is tracing, each heartbeat also lands as an
instant event under :data:`repro.obs.spans.PID_WORKERS` so worker
shards show up as labeled tracks in the Chrome trace.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable

from repro.obs import runtime as _obs
from repro.obs.spans import PID_WORKERS

#: A worker this many times behind the median completed-item count is
#: flagged as a straggler.
STRAGGLER_FACTOR = 2.0


def worker_ident() -> int:
    """Small-int id of this pool worker (0 in the parent / serial path).

    Pool workers are named ``ForkPoolWorker-<n>``; the trailing integer
    is stable for the worker's lifetime, which is all a heartbeat needs.
    """
    import multiprocessing

    name = multiprocessing.current_process().name
    if "-" in name:
        try:
            return int(name.rsplit("-", 1)[1])
        except ValueError:
            pass
    return 0


class ProgressTracker:
    """Parent-side aggregation of one fan-out's worker heartbeats.

    ``total`` is the number of sharded items expected; ``what`` names
    them in the status line (``"runs"``, ``"rounds"``).  ``emit`` is the
    line sink (typically printing to stderr) -- when None the tracker
    still aggregates, it just never renders.  ``clock`` is injectable
    for tests.
    """

    def __init__(self, total: int, what: str = "runs",
                 emit: Callable[[str], None] | None = None,
                 interval: float = 0.5,
                 clock: Callable[[], float] = time.monotonic):
        self.total = total
        self.what = what
        self.emit = emit
        self.interval = interval
        self.clock = clock
        self.t0 = clock()
        self.done = 0
        self.steps = 0
        #: worker id -> {"items", "busy_seconds", "steps"}
        self.workers: dict[int, dict] = {}
        #: supervisor event kind -> count (retries, timeouts, crashes,
        #: errors, workers.replaced, shards.toxic)
        self.supervisor: dict[str, int] = {}
        self._last_emit = self.t0
        self._wall = 0.0

    # -- heartbeats ----------------------------------------------------------

    def note(self, worker: int, seconds: float, steps: int = 0) -> None:
        """One completed item from ``worker`` (its heartbeat)."""
        w = self.workers.setdefault(
            worker, {"items": 0, "busy_seconds": 0.0, "steps": 0}
        )
        w["items"] += 1
        w["busy_seconds"] += seconds
        w["steps"] += steps
        self.done += 1
        self.steps += steps
        now = self.clock()
        self._wall = now - self.t0
        if _obs.active:
            telemetry = _obs.current()
            if telemetry.tracing:
                telemetry.tracer.instant(
                    f"progress.{self.what}", pid=PID_WORKERS,
                    tid=f"worker {worker}",
                    done=w["items"], total=self.total,
                )
        if self.emit is not None and (
            now - self._last_emit >= self.interval or self.done >= self.total
        ):
            self._last_emit = now
            self.emit(self.render_line())

    def note_supervisor(self, kind: str) -> None:
        """One supervision event (``"retries"``, ``"timeouts"``,
        ``"crashes"``, ``"errors"``, ``"workers.replaced"``,
        ``"shards.toxic"``) from the supervised pool.  Tallied beside
        the heartbeats so recovery activity reaches the status line,
        :meth:`summary`, and the published gauges without touching the
        report bytes."""
        self.supervisor[kind] = self.supervisor.get(kind, 0) + 1

    # -- derived state -------------------------------------------------------

    def stragglers(self) -> list[int]:
        """Workers more than :data:`STRAGGLER_FACTOR` x behind the median
        completed-item count (needs >= 2 workers to be meaningful)."""
        if len(self.workers) < 2:
            return []
        median = statistics.median(w["items"] for w in self.workers.values())
        return sorted(
            wid for wid, w in self.workers.items()
            if w["items"] * STRAGGLER_FACTOR < median
        )

    def render_line(self) -> str:
        """The one-line stderr status: completion, throughput, ETA."""
        wall = max(self._wall, 1e-9)
        rate = self.done / wall
        parts = [
            f"progress: {self.done}/{self.total} {self.what}",
            f"{len(self.workers)} worker(s)",
            f"{rate:.1f} {self.what}/s",
        ]
        if self.steps:
            parts.append(f"{self.steps / wall:,.0f} steps/s")
        if rate > 0 and self.done < self.total:
            parts.append(f"eta {(self.total - self.done) / rate:.1f}s")
        flagged = self.stragglers()
        if flagged:
            parts.append(
                "straggler: " + ",".join(f"w{wid}" for wid in flagged)
            )
        if self.supervisor:
            parts.append("recovery: " + ",".join(
                f"{kind}={count}"
                for kind, count in sorted(self.supervisor.items())
            ))
        return " | ".join(parts)

    def summary(self) -> dict:
        """JSON-ready per-worker gauges (what the ledger records)."""
        flagged = set(self.stragglers())
        workers = {}
        for wid, w in sorted(self.workers.items()):
            busy = w["busy_seconds"]
            workers[str(wid)] = {
                "items": w["items"],
                "busy_seconds": round(busy, 6),
                "steps": w["steps"],
                "steps_per_second": round(w["steps"] / busy) if busy > 0 else 0,
                "straggler": wid in flagged,
            }
        return {
            "what": self.what,
            "done": self.done,
            "total": self.total,
            "wall_seconds": round(self._wall, 6),
            "workers": workers,
            "supervisor": dict(sorted(self.supervisor.items())),
        }

    # -- sinks ---------------------------------------------------------------

    def publish(self, telemetry) -> None:
        """Set ``progress.worker.<id>.*`` gauges on ``telemetry``.

        Gauges live in the volatile ``progress.`` namespace: the ledger
        stores them beside (never inside) the deterministic counter
        snapshot, so identical campaigns keep identical snapshots.
        """
        summary = self.summary()
        telemetry.gauge("progress.workers").set(len(summary["workers"]))
        telemetry.gauge(f"progress.{self.what}.done").set(self.done)
        for wid, w in summary["workers"].items():
            prefix = f"progress.worker.{wid}"
            telemetry.gauge(f"{prefix}.{self.what}").set(w["items"])
            telemetry.gauge(f"{prefix}.steps_per_sec").set(
                w["steps_per_second"]
            )
            telemetry.gauge(f"{prefix}.straggler").set(
                1.0 if w["straggler"] else 0.0
            )
        for kind, count in sorted(self.supervisor.items()):
            telemetry.gauge(f"progress.supervisor.{kind}").set(count)

    def finish(self) -> dict:
        """Emit the final line, publish gauges to any active telemetry,
        and return :meth:`summary`.

        When the sink is a status line (it has ``clear``/``println``,
        like the CLI's in-place stderr line), the throttled line is
        cleared first and the final line is printed durably -- summaries
        that follow ``finish()`` never interleave with a stale progress
        line.  A plain callable sink behaves as before.
        """
        self._wall = self.clock() - self.t0
        if self.emit is not None:
            clear = getattr(self.emit, "clear", None)
            if clear is not None:
                clear()
            if self.done:
                println = getattr(self.emit, "println", self.emit)
                println(self.render_line())
        if _obs.active:
            self.publish(_obs.current())
        return self.summary()
