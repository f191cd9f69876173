"""Persistent run ledger: every ``tangled`` invocation, queryable forever.

Without it a run's telemetry evaporates at process exit.  This module
gives the reproduction a memory -- a small SQLite database (default
``~/.tangled/ledger.db``, overridable with the ``TANGLED_LEDGER``
environment variable) into which the CLI records one row per
``tangled run|fig10|faults|profile`` invocation:

- a unique run id and timestamp;
- the full resolved configuration (simulator, ``--qat-backend``, ways,
  seed, fault plan, jobs, ...) and the package version;
- wall seconds and the command's exit status;
- a trap summary (when the run trapped) and the **deterministic scalar
  counter snapshot** from :mod:`repro.obs` -- histograms and the
  volatile ``progress.*`` gauges are excluded, so two identical runs
  store identical snapshots;
- per-worker fan-out gauges (from :mod:`repro.obs.progress`) and the
  paths of emitted artifacts (trace / profile JSON, blackbox spills).

Rows written by older builds stay readable, including the per-entry
rows of the retired ``tangled bench`` (labels such as ``fig10.re``).

On top of the table, three read-side views power ``tangled report``:

- :func:`runs_view` -- the recent-run listing;
- :func:`trajectory_view` -- counter/rate series and first->last deltas
  across the last N recorded runs of one label;
- :func:`compare_view` -- a side-by-side of two runs (ids or labels),
  every shared metric classified improved/regressed/neutral.

Every view is a plain dict; :func:`export_json` serializes it with
sorted keys so repeated exports of the same ledger are byte-identical.
The ledger is strictly parent-process, append-mostly, and best-effort:
CLI recording failures warn on stderr but never fail the run.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import uuid
from dataclasses import dataclass, field

from repro._version import __version__
from repro.errors import ReproError

#: Ledger schema version (sqlite ``PRAGMA user_version``).  Version 2
#: added the ``shards`` journal table; version-1 databases migrate in
#: place on open (the table is simply created).
SCHEMA_VERSION = 2

#: Environment variable overriding the database location.
ENV_VAR = "TANGLED_LEDGER"

#: Default database location (created on first record).
DEFAULT_PATH = "~/.tangled/ledger.db"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id           TEXT PRIMARY KEY,
    ts           REAL NOT NULL,
    command      TEXT NOT NULL,
    label        TEXT NOT NULL,
    version      TEXT NOT NULL,
    config       TEXT NOT NULL,
    wall_seconds REAL,
    status       INTEGER NOT NULL,
    traps        TEXT,
    counters     TEXT NOT NULL,
    rate         TEXT,
    workers      TEXT,
    artifacts    TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_label_ts ON runs (label, ts);
CREATE INDEX IF NOT EXISTS runs_ts ON runs (ts);
CREATE TABLE IF NOT EXISTS shards (
    run_id   TEXT NOT NULL,
    shard    INTEGER NOT NULL,
    status   TEXT NOT NULL,
    attempts INTEGER NOT NULL,
    payload  TEXT NOT NULL,
    PRIMARY KEY (run_id, shard)
);
"""

#: ``shards.status`` values.  ``meta`` rows (shard ``-1``) carry the
#: campaign fingerprint a resume must match; ``done`` rows hold the
#: shard's merged-report payload; ``toxic`` rows mark quarantined
#: shards that a resume re-executes.
SHARD_META, SHARD_DONE, SHARD_TOXIC = "meta", "done", "toxic"


def _connect(path: str) -> sqlite3.Connection:
    """Open ``path`` hardened for concurrent writers.

    WAL mode lets resumable shard journaling and future service-layer
    writers commit while readers hold the database open; the busy
    timeout makes SQLite itself wait out short write locks instead of
    failing with ``database is locked``.  WAL can be refused on some
    filesystems (network mounts) -- that is survivable, the busy
    timeout still applies.
    """
    conn = sqlite3.connect(path)
    conn.row_factory = sqlite3.Row
    conn.execute("PRAGMA busy_timeout = 5000")
    try:
        conn.execute("PRAGMA journal_mode = WAL")
    except sqlite3.OperationalError:
        pass
    return conn


def _locked_retry(fn, attempts: int = 5, delay: float = 0.05):
    """Run ``fn`` retrying on ``database is locked``/``busy`` errors.

    The busy timeout handles locks held *within* a query; this covers
    the gap where a concurrent writer wins the race between our
    statements.  Backoff doubles per attempt; the final attempt
    propagates whatever SQLite raises.
    """
    for attempt in range(attempts):
        try:
            return fn()
        except sqlite3.OperationalError as exc:
            message = str(exc).lower()
            if "locked" not in message and "busy" not in message:
                raise
            time.sleep(delay * (2 ** attempt))
    return fn()


def ledger_path(path: str | None = None) -> str:
    """Resolve the database path: explicit > ``TANGLED_LEDGER`` > default."""
    if path:
        return path
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    return os.path.expanduser(DEFAULT_PATH)


class AmbiguousRunId(ReproError):
    """A run-id prefix matches more than one recorded run.

    Must surface to the user with the candidate ids (``candidates``,
    capped at 5) -- silently picking one, or degrading to the generic
    "matches nothing" message on the label-fallback path, resolves the
    reference to the *wrong run*.  :meth:`Ledger.resolve` re-raises it
    for exactly that reason, so ``tangled report --compare`` and
    ``tangled blackbox`` list the candidates instead of guessing.
    """

    def __init__(self, ref: str, candidates: list[str]):
        self.ref = ref
        self.candidates = candidates
        super().__init__(
            f"run id {ref!r} is ambiguous ({', '.join(candidates)})"
        )


@dataclass
class RunRecord:
    """One recorded invocation, or one bench entry from an older build."""

    id: str
    ts: float
    command: str
    label: str
    version: str
    config: dict
    wall_seconds: float | None
    status: int
    traps: dict | None
    counters: dict
    rate: dict | None
    workers: dict | None
    artifacts: list = field(default_factory=list)

    def as_dict(self) -> dict:
        """JSON-ready rendering (stable for byte-stable exports)."""
        return {
            "id": self.id,
            "ts": self.ts,
            "command": self.command,
            "label": self.label,
            "version": self.version,
            "config": self.config,
            "wall_seconds": self.wall_seconds,
            "status": self.status,
            "traps": self.traps,
            "counters": self.counters,
            "rate": self.rate,
            "workers": self.workers,
            "artifacts": self.artifacts,
        }

    def metrics(self) -> dict[str, float]:
        """Counters plus the rate, flattened for trajectory/compare views.

        ``rate.steps_per_second`` is wall-clock derived; the views keep
        it but classify it with the (looser) timing threshold.
        """
        out = dict(self.counters)
        if self.rate:
            for key, value in self.rate.items():
                out[f"rate.{key}"] = value
        return out


def _row_to_record(row: sqlite3.Row) -> RunRecord:
    return RunRecord(
        id=row["id"],
        ts=row["ts"],
        command=row["command"],
        label=row["label"],
        version=row["version"],
        config=json.loads(row["config"]),
        wall_seconds=row["wall_seconds"],
        status=row["status"],
        traps=json.loads(row["traps"]) if row["traps"] else None,
        counters=json.loads(row["counters"]),
        rate=json.loads(row["rate"]) if row["rate"] else None,
        workers=json.loads(row["workers"]) if row["workers"] else None,
        artifacts=json.loads(row["artifacts"]),
    )


class Ledger:
    """SQLite-backed run ledger.  One connection, parent process only."""

    def __init__(self, path: str | None = None):
        self.path = ledger_path(path)
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._conn = _connect(self.path)
        _locked_retry(lambda: self._conn.executescript(_SCHEMA))
        version = self._conn.execute("PRAGMA user_version").fetchone()[0]
        if version in (0, 1):
            # 0 = fresh database; 1 = pre-journal schema, whose tables
            # are a strict subset -- the executescript above already
            # created the ``shards`` table, so stamping the version is
            # the whole migration.
            self._conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        elif version != SCHEMA_VERSION:
            raise ReproError(
                f"{self.path}: unsupported ledger schema {version} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        self._conn.commit()

    # -- write side ----------------------------------------------------------

    def record(
        self,
        command: str,
        label: str,
        config: dict,
        counters: dict,
        status: int = 0,
        wall_seconds: float | None = None,
        traps: dict | None = None,
        rate: dict | None = None,
        workers: dict | None = None,
        artifacts: list | None = None,
        ts: float | None = None,
        run_id: str | None = None,
    ) -> str:
        """Insert one run row; returns the run id.

        Retries on ``database is locked`` so the best-effort CLI write
        path survives concurrent writers (resumable shard journaling,
        parallel invocations, the future service layer).
        """
        run_id = run_id or uuid.uuid4().hex[:12]
        row = (
            run_id,
            time.time() if ts is None else ts,
            command,
            label,
            __version__,
            json.dumps(config, sort_keys=True),
            wall_seconds,
            status,
            json.dumps(traps, sort_keys=True) if traps else None,
            json.dumps(counters, sort_keys=True),
            json.dumps(rate, sort_keys=True) if rate else None,
            json.dumps(workers, sort_keys=True) if workers else None,
            json.dumps(list(artifacts or [])),
        )

        def _insert():
            self._conn.execute(
                "INSERT INTO runs (id, ts, command, label, version, config, "
                "wall_seconds, status, traps, counters, rate, workers, "
                "artifacts) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                row,
            )
            self._conn.commit()

        _locked_retry(_insert)
        return run_id

    # -- read side -----------------------------------------------------------

    def runs(self, label: str | None = None, command: str | None = None,
             last: int | None = None) -> list[RunRecord]:
        """Recorded runs, oldest first; ``last`` keeps the newest N."""
        clauses, params = [], []
        if label is not None:
            clauses.append("label = ?")
            params.append(label)
        if command is not None:
            clauses.append("command = ?")
            params.append(command)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        # ``id`` breaks ties so same-second runs still order stably.
        sql += " ORDER BY ts DESC, id DESC"
        if last is not None:
            sql += " LIMIT ?"
            params.append(last)
        rows = self._conn.execute(sql, params).fetchall()
        return [_row_to_record(row) for row in reversed(rows)]

    def get(self, ref: str) -> RunRecord:
        """The run with id ``ref`` (full or unique prefix)."""
        rows = self._conn.execute(
            "SELECT * FROM runs WHERE id = ? OR id LIKE ? ORDER BY ts",
            (ref, ref + "%"),
        ).fetchall()
        if not rows:
            raise ReproError(f"no recorded run with id {ref!r}")
        if len(rows) > 1:
            raise AmbiguousRunId(ref, [row["id"] for row in rows[:5]])
        return _row_to_record(rows[0])

    def resolve(self, ref: str) -> RunRecord:
        """``ref`` as a run id (prefix), else the latest run of that label.

        An *ambiguous* id prefix is an error, not a fall-through: the
        user named runs, so the label fallback (or the generic
        "matches nothing" message) would silently answer a different
        question.  :class:`AmbiguousRunId` carries the candidates for
        the CLI to show.
        """
        try:
            return self.get(ref)
        except AmbiguousRunId:
            raise
        except ReproError:
            runs = self.runs(label=ref, last=1)
            if runs:
                return runs[-1]
            raise ReproError(
                f"{ref!r} matches no recorded run id or label "
                f"(see `tangled report` for what the ledger holds)"
            ) from None

    def labels(self) -> list[tuple[str, int]]:
        """Every distinct label with its recorded-run count."""
        rows = self._conn.execute(
            "SELECT label, COUNT(*) AS n FROM runs GROUP BY label "
            "ORDER BY label"
        ).fetchall()
        return [(row["label"], row["n"]) for row in rows]

    def shard_summary(self, run_id: str) -> dict | None:
        """Schema-v2 shard journal rollup for one run, or None.

        Counts the journaled shards of a supervised fan-out (the meta
        fingerprint row at shard ``-1`` is excluded): how many landed,
        how many needed more than one attempt, and how many were
        quarantined as toxic.  Runs without journal rows (serial runs,
        ``run``/``profile`` commands) report None, not zeros.
        """
        rows = self._conn.execute(
            "SELECT status, attempts FROM shards "
            "WHERE run_id = ? AND shard >= 0",
            (run_id,),
        ).fetchall()
        if not rows:
            return None
        return {
            "recorded": len(rows),
            "done": sum(1 for r in rows if r["status"] == SHARD_DONE),
            "toxic": sum(1 for r in rows if r["status"] == SHARD_TOXIC),
            "retried": sum(1 for r in rows if r["attempts"] > 1),
        }

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


def open_ledger(path: str | None = None) -> Ledger:
    """Open (creating if needed) the ledger at ``path`` (resolved)."""
    return Ledger(path)


# ---------------------------------------------------------------------------
# Shard journal (resumable campaigns and sweeps)
# ---------------------------------------------------------------------------

class ShardJournal:
    """Per-shard result journal for one resumable fan-out.

    The supervised campaign runner records every shard's terminal
    state here as it completes, keyed by ``(run_id, shard)``: ``done``
    rows carry the exact payload that enters the merged report, so
    ``tangled faults --resume <run-id>`` can re-execute only the
    missing and ``toxic`` shards and still emit byte-identical output.
    A ``meta`` row (shard ``-1``) pins the run's semantic fingerprint --
    a resume with different campaign arguments is refused rather than
    silently merged into nonsense.

    Writes are best-effort in the same sense as the run ledger: one
    short-lived WAL connection per write, retried on lock contention; a
    journaling failure disables the journal for the rest of the run
    and warns once on stderr, never failing the campaign itself.
    """

    def __init__(self, run_id: str, path: str | None = None,
                 resume: bool = False):
        from repro.errors import SupervisorError

        self.run_id = run_id
        self.path = ledger_path(path)
        self.resume = resume
        self.enabled = True
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        # The journal may open before the CLI's Ledger (which owns the
        # schema on the record path) ever touches this database --
        # create the tables here so the first shard write cannot fail.
        conn = _connect(self.path)
        try:
            _locked_retry(lambda: conn.executescript(_SCHEMA))
            conn.commit()
            if resume:
                # Resume target must exist before any work is scheduled.
                row = conn.execute(
                    "SELECT COUNT(*) FROM shards WHERE run_id = ?",
                    (run_id,),
                ).fetchone()
        finally:
            conn.close()
        if resume:
            if not row[0]:
                raise SupervisorError(
                    f"no journaled shards for run id {run_id!r} "
                    f"(nothing to resume)"
                )

    def _write(self, fn) -> None:
        if not self.enabled:
            return
        try:
            conn = _connect(self.path)
            try:
                def _commit():
                    fn(conn)
                    conn.commit()

                _locked_retry(_commit)
            finally:
                conn.close()
        except Exception as exc:  # journaling must never fail the run
            self.enabled = False
            import sys

            print(f"tangled: shard journal: {exc} (resume disabled for "
                  f"this run)", file=sys.stderr)

    def begin(self, kind: str, fingerprint: dict) -> dict[int, dict]:
        """Open the journal; returns already-completed shard payloads.

        On a fresh run the ``meta`` row is written and ``{}`` returned.
        On resume the stored fingerprint must equal ``fingerprint``
        (same kind, same semantic arguments) or a
        :class:`~repro.errors.SupervisorError` is raised; the returned
        mapping holds every ``done`` shard's payload.
        """
        from repro.errors import SupervisorError

        record = {"kind": kind, "fingerprint": fingerprint}
        if not self.resume:
            self._write(lambda conn: conn.execute(
                "INSERT OR REPLACE INTO shards "
                "(run_id, shard, status, attempts, payload) "
                "VALUES (?, -1, ?, 0, ?)",
                (self.run_id, SHARD_META,
                 json.dumps(record, sort_keys=True)),
            ))
            return {}
        conn = _connect(self.path)
        try:
            _locked_retry(lambda: conn.executescript(_SCHEMA))
            meta = conn.execute(
                "SELECT payload FROM shards WHERE run_id = ? AND shard = -1",
                (self.run_id,),
            ).fetchone()
            if meta is None:
                raise SupervisorError(
                    f"run {self.run_id!r} has journaled shards but no "
                    f"fingerprint; cannot verify a resume against it"
                )
            stored = json.loads(meta["payload"])
            if stored != record:
                drift = sorted(
                    key for key in set(stored.get("fingerprint", {}))
                    | set(fingerprint)
                    if stored.get("fingerprint", {}).get(key)
                    != fingerprint.get(key)
                ) or ["kind"]
                raise SupervisorError(
                    f"cannot resume run {self.run_id!r}: arguments differ "
                    f"from the journaled campaign ({', '.join(drift)})"
                )
            rows = conn.execute(
                "SELECT shard, payload FROM shards "
                "WHERE run_id = ? AND shard >= 0 AND status = ?",
                (self.run_id, SHARD_DONE),
            ).fetchall()
        finally:
            conn.close()
        return {row["shard"]: json.loads(row["payload"]) for row in rows}

    def record(self, shard: int, status: str, attempts: int,
               payload: dict) -> None:
        """Journal one shard's terminal state (replacing any prior row)."""
        self._write(lambda conn: conn.execute(
            "INSERT OR REPLACE INTO shards "
            "(run_id, shard, status, attempts, payload) "
            "VALUES (?, ?, ?, ?, ?)",
            (self.run_id, shard, status, attempts,
             json.dumps(payload, sort_keys=True)),
        ))


def journal_fingerprint(run_id: str, path: str | None = None) -> dict:
    """The journaled ``{"kind", "fingerprint"}`` meta record for a run.

    This is how ``--resume <run-id>`` restores the original campaign
    shape (program, seed, rounds ...) without the caller repeating it
    on the command line.  Raises :class:`~repro.errors.SupervisorError`
    when the run journaled shards but never a ``meta`` row.
    """
    from repro.errors import SupervisorError

    conn = _connect(ledger_path(path))
    try:
        row = conn.execute(
            "SELECT payload FROM shards WHERE run_id = ? AND shard = -1",
            (run_id,),
        ).fetchone()
    finally:
        conn.close()
    if row is None:
        raise SupervisorError(
            f"run {run_id!r} has journaled shards but no fingerprint; "
            f"cannot restore its arguments for a resume"
        )
    return json.loads(row["payload"])


def resolve_journal_run(ref: str, path: str | None = None) -> str:
    """Resolve ``ref`` (a run id or unique prefix) against the journal."""
    resolved = ledger_path(path)
    if not os.path.exists(resolved):
        raise ReproError(
            f"no run ledger at {resolved}; nothing to resume"
        )
    conn = _connect(resolved)
    try:
        _locked_retry(lambda: conn.executescript(_SCHEMA))
        rows = conn.execute(
            "SELECT DISTINCT run_id FROM shards "
            "WHERE run_id = ? OR run_id LIKE ? ORDER BY run_id",
            (ref, ref + "%"),
        ).fetchall()
    finally:
        conn.close()
    ids = [row["run_id"] for row in rows]
    if not ids:
        raise ReproError(
            f"no journaled run matches {ref!r} (resume needs a run id "
            f"from an interrupted or toxic campaign)"
        )
    if ref in ids:
        return ref
    if len(ids) > 1:
        raise AmbiguousRunId(ref, ids[:5])
    return ids[0]


# ---------------------------------------------------------------------------
# Telemetry snapshot split
# ---------------------------------------------------------------------------

def scalar_snapshot(telemetry) -> tuple[dict, dict]:
    """Split a telemetry instance into ``(counters, progress)``.

    ``counters`` holds every scalar (non-histogram) metric *except* the
    ``progress.`` namespace -- the deterministic part, safe to diff
    across identical runs.  ``progress`` holds the per-worker fan-out
    gauges, which are wall-clock shaped and stored beside the snapshot.
    """
    from repro.obs.metrics import Histogram

    counters: dict = {}
    progress: dict = {}
    if telemetry is None:
        return counters, progress
    for name, metric in telemetry.metrics.items():
        if isinstance(metric, Histogram):
            continue
        if name.startswith("progress."):
            progress[name] = metric.value
        else:
            counters[name] = metric.value
    return counters, progress


# ---------------------------------------------------------------------------
# Views (the read side behind ``tangled report``)
# ---------------------------------------------------------------------------

def runs_view(ledger: Ledger, last: int = 20) -> dict:
    """The recent-run listing (with per-run shard journal rollups)."""
    entries = []
    for run in ledger.runs(last=last):
        entry = run.as_dict()
        entry["shards"] = ledger.shard_summary(run.id)
        entries.append(entry)
    return {
        "view": "runs",
        "ledger": ledger.path,
        "runs": entries,
        "labels": [
            {"label": label, "runs": count}
            for label, count in ledger.labels()
        ],
    }


def trajectory_view(ledger: Ledger, label: str, last: int = 10) -> dict:
    """Counter/rate series across the last N recorded runs of ``label``.

    ``series`` maps each metric name to one value per run (None where a
    run lacks it); ``deltas`` carries first/last/pct for every metric
    present at both ends of the window.
    """
    runs = ledger.runs(label=label, last=last)
    if not runs:
        known = ", ".join(name for name, _ in ledger.labels()) or "(empty)"
        raise ReproError(
            f"no recorded runs for label {label!r} (ledger has: {known})"
        )
    metrics_per_run = [run.metrics() for run in runs]
    names = sorted(set().union(*metrics_per_run))
    series = {
        name: [metrics.get(name) for metrics in metrics_per_run]
        for name in names
    }
    deltas = {}
    for name, values in series.items():
        first, final = values[0], values[-1]
        if first is None or final is None:
            continue
        pct = None if first == 0 else round((final - first) / abs(first), 6)
        deltas[name] = {"first": first, "last": final, "pct": pct}
    return {
        "view": "trajectory",
        "ledger": ledger.path,
        "label": label,
        "runs": [
            {
                "id": run.id,
                "ts": run.ts,
                "version": run.version,
                "status": run.status,
                "wall_seconds": run.wall_seconds,
            }
            for run in runs
        ],
        "series": series,
        "deltas": deltas,
    }


#: Metrics where *larger* is the improvement; every other metric is
#: treated as a cost (cycles, stalls, seconds, bit volume).
HIGHER_IS_BETTER = (
    "chunkstore.binop.hit",
    "pipeline.retired",
    "faults.masked",
    "rate.steps_per_second",
)


def _classify(metric: str, base: float, current: float,
              threshold: float) -> str:
    """``improved``/``regressed``/``neutral`` for one metric's change.

    A relative change within ``threshold`` is neutral; a metric moving
    off a zero baseline counts as a 100% change.
    """
    if base == current:
        return "neutral"
    if base == 0:
        delta = 1.0 if current > 0 else -1.0
    else:
        delta = (current - base) / abs(base)
    if abs(delta) <= threshold:
        return "neutral"
    worse = delta > 0
    if metric in HIGHER_IS_BETTER:
        worse = not worse
    return "regressed" if worse else "improved"


def compare_view(ledger: Ledger, ref_a: str, ref_b: str,
                 counter_threshold: float = 0.05,
                 time_threshold: float = 0.25) -> dict:
    """Side-by-side of two recorded runs (ids or labels, A = baseline).

    Every shared metric becomes improved/regressed/neutral, with the
    wall-clock ``rate.*`` entries judged against the looser timing
    threshold.
    """
    a, b = ledger.resolve(ref_a), ledger.resolve(ref_b)
    metrics_a, metrics_b = a.metrics(), b.metrics()
    rows = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        in_a, in_b = name in metrics_a, name in metrics_b
        if not (in_a and in_b):
            rows.append({
                "metric": name, "kind": "missing",
                "baseline": metrics_a.get(name),
                "current": metrics_b.get(name),
                "verdict": "neutral",
            })
            continue
        timing = name.startswith("rate.")
        threshold = time_threshold if timing else counter_threshold
        verdict = _classify(name, metrics_a[name], metrics_b[name], threshold)
        rows.append({
            "metric": name, "kind": "timing" if timing else "counter",
            "baseline": metrics_a[name], "current": metrics_b[name],
            "verdict": verdict,
        })
    def _meta(run: RunRecord) -> dict:
        return {
            "id": run.id,
            "ts": run.ts,
            "command": run.command,
            "label": run.label,
            "version": run.version,
            "status": run.status,
            "config": run.config,
            "shards": ledger.shard_summary(run.id),
        }
    return {
        "view": "compare",
        "ledger": ledger.path,
        "a": _meta(a),
        "b": _meta(b),
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def export_json(view: dict) -> str:
    """Canonical serialization: same ledger content, same bytes."""
    return json.dumps(view, sort_keys=True, indent=2) + "\n"


def _when(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def _shard_note(shards: dict | None) -> str:
    """Suffix annotating a run's journaled fan-out recovery, if any."""
    if not shards:
        return ""
    parts = []
    if shards.get("retried"):
        parts.append(f"{shards['retried']} retried")
    if shards.get("toxic"):
        parts.append(f"{shards['toxic']} toxic")
    if not parts:
        return ""
    return f"  [shards: {', '.join(parts)}]"


def _render_runs(view: dict) -> str:
    lines = [f"== run ledger ({view['ledger']}) =="]
    if not view["runs"]:
        lines.append("  (empty -- run any tangled command to record)")
        return "\n".join(lines)
    lines.append(f"  {'id':<12} {'when (UTC)':<19} {'command':<8} "
                 f"{'status':<6} {'wall':>8}  label")
    for run in view["runs"]:
        wall = "-" if run["wall_seconds"] is None else \
            f"{run['wall_seconds']:.2f}s"
        line = (
            f"  {run['id']:<12} {_when(run['ts']):<19} "
            f"{run['command']:<8} {run['status']:<6} {wall:>8}  "
            f"{run['label']}"
        )
        line += _shard_note(run.get("shards"))
        lines.append(line)
    lines.append("labels:")
    for entry in view["labels"]:
        lines.append(f"  {entry['label']:<40} {entry['runs']} run(s)")
    return "\n".join(lines)


def _render_trajectory(view: dict) -> str:
    runs = view["runs"]
    lines = [
        f"== trajectory: {view['label']} "
        f"({len(runs)} run(s), oldest first) =="
    ]
    for run in runs:
        wall = "-" if run["wall_seconds"] is None else \
            f"{run['wall_seconds']:.2f}s"
        lines.append(
            f"  {run['id']:<12} {_when(run['ts'])}  v{run['version']}  "
            f"status {run['status']}  wall {wall}"
        )
    moved, flat = [], []
    for name, values in sorted(view["series"].items()):
        delta = view["deltas"].get(name)
        path = " -> ".join(_fmt(v) for v in values)
        if delta and delta["first"] != delta["last"]:
            pct = "" if delta["pct"] is None else f"  ({delta['pct']:+.2%})"
            moved.append(f"  {name}: {path}{pct}")
        else:
            flat.append(f"  {name}: {_fmt(values[-1])}")
    if moved:
        lines += ["changed:"] + moved
    if flat:
        lines += [f"unchanged across the window ({len(flat)}):"] + flat
    return "\n".join(lines)


def _render_compare(view: dict) -> str:
    a, b = view["a"], view["b"]

    def _quarantine_suffix(meta: dict) -> str:
        shards = meta.get("shards") or {}
        if not shards.get("toxic"):
            return ""
        return f"  [quarantined: {shards['toxic']} toxic shard(s)]"

    lines = [
        "== ledger comparison ==",
        f"  A (baseline): {a['id']}  {a['label']}  "
        f"{_when(a['ts'])}  v{a['version']}" + _quarantine_suffix(a),
        f"  B (current) : {b['id']}  {b['label']}  "
        f"{_when(b['ts'])}  v{b['version']}" + _quarantine_suffix(b),
    ]
    shown = [r for r in view["rows"] if r["verdict"] != "neutral"]
    if not shown:
        lines.append("  all shared metrics neutral")
    for row in shown:
        lines.append(
            f"  [{row['verdict']:<9}] {row['metric']}: "
            f"{_fmt(row['baseline'])} -> {_fmt(row['current'])}"
        )
    counts: dict[str, int] = {}
    for row in view["rows"]:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    lines.append(
        f"  {counts.get('improved', 0)} improved, "
        f"{counts.get('regressed', 0)} regressed, "
        f"{counts.get('neutral', 0)} neutral"
    )
    return "\n".join(lines)


def render_view(view: dict) -> str:
    """Human-readable rendering of any report view."""
    renderers = {
        "runs": _render_runs,
        "trajectory": _render_trajectory,
        "compare": _render_compare,
    }
    kind = view.get("view")
    if kind not in renderers:
        raise ReproError(f"unknown report view {kind!r}")
    return renderers[kind](view)
