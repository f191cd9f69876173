"""Architectural flight recorder: an always-on black box for post-mortems.

Telemetry (:mod:`repro.obs`) answers "how did the run perform?" and is
opt-in because capture disables the fast path.  This module answers a
different question -- "what was the machine *doing* when it died?" --
and therefore has the opposite cost contract: it is **on by default**,
bounded, and cheap enough that the stripped fast loops keep their
eligibility with it enabled.

The process-global :data:`RECORDER` keeps the last
:data:`DEFAULT_CAPACITY` architectural events in a trimmed list of
fixed-size tuples (one small tuple per event, no dicts or objects on
the hot path):

- retired PC + raw instruction word(s) (from the executor tail and the
  fast run loops);
- taken traps with cause/cycle/detail (:func:`repro.faults.traps.deliver`);
- syscalls with their service number;
- checkpoint save/restore/capture/load operations;
- injected fault events (:func:`repro.faults.inject.apply_event`);
- supervisor lifecycle marks (retries, kills, quarantines) and campaign
  run boundaries.

On an abnormal end -- a trap-halt, a :class:`~repro.errors.SimulatorError`,
a shard deadline, Ctrl-C -- the ring is spilled as a byte-stable
``blackbox-<run-id>[-shard<N>].json`` (sorted keys, no timestamps) that
``tangled blackbox`` renders back as a disassembled listing.  Supervised
workers spill to a *spool* directory (:data:`SPOOL_ENV`) from inside the
worker -- armed via ``SIGALRM`` ahead of the shard deadline, and on any
worker-side error -- because the parent's deadline kill is a SIGKILL the
worker can never catch.  The supervisor collects the spool files of
quarantined shards into the campaign report and the run ledger's
``artifacts`` column.

Every campaign run is a lane of a batch (:mod:`repro.cpu.batch`;
serial campaigns run 1-lane batches, ``--batch N`` packs N runs): each
lane opens with its run's ``campaign.run`` mark and spill context, and
records its own retire, fault, trap and syscall events, so the ring
holds the same stream whatever the packing.  A lane forked from the
batch's fault-free twin puts the twin's records of its prefix in the
ring first, after its mark, as if it had run that prefix itself.

Like :mod:`repro.obs.runtime`, this module imports nothing from the rest
of ``repro`` at module level so every layer can record into it without
import cycles.  ``TANGLED_FLIGHT=0`` disables recording process-wide;
``TANGLED_FLIGHT=<n>`` resizes the ring.
"""

from __future__ import annotations

import json
import os

#: Ring capacity (events kept) unless ``TANGLED_FLIGHT`` overrides it.
DEFAULT_CAPACITY = 4096

#: Blackbox file format version (the ``"blackbox"`` key of every spill).
FORMAT_VERSION = 1

#: Environment variable: ``0``/``off`` disables the recorder, an integer
#: resizes the ring.
ENV_VAR = "TANGLED_FLIGHT"

#: Spool directory workers spill into before the parent can SIGKILL them.
SPOOL_ENV = "TANGLED_BLACKBOX_SPOOL"

#: Run id used for spool file names (set beside :data:`SPOOL_ENV`).
SPOOL_RUN_ENV = "TANGLED_BLACKBOX_RUN"

#: Directory override for parent-side blackbox spills (default: a
#: ``blackbox/`` directory beside the run ledger database).
DIR_ENV = "TANGLED_BLACKBOX_DIR"

#: Event kind tags (the first element of every ring tuple).
RETIRE, TRAP, SYSCALL, CHECKPOINT, FAULT, MARK = range(6)

_KIND_NAMES = ("retire", "trap", "syscall", "checkpoint", "fault", "mark")


class FlightRecorder:
    """Bounded ring of architectural events as fixed-size tuples.

    The hot path is an inlined ``events.append((RETIRE, pc, raw))`` in
    the fast run loops (no method call, no per-retire object beyond the
    event tuple itself); everything else goes through the ``note_*``
    helpers.  The list is trimmed back to ``capacity`` whenever it
    reaches ``2 * capacity``, so appends stay O(1) amortized and memory
    stays bounded at a few hundred KiB.
    """

    __slots__ = ("capacity", "limit", "events", "trimmed", "enabled")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 enabled: bool = True):
        self.capacity = max(1, int(capacity))
        #: trim threshold checked by the inlined hot-path append.
        self.limit = 2 * self.capacity
        #: the ring: ``(kind, pc, payload)`` tuples, oldest first.
        self.events: list[tuple] = []
        #: events dropped by trims (``trimmed + len(events)`` = total).
        self.trimmed = 0
        self.enabled = enabled

    # -- recording -----------------------------------------------------------

    def _trim(self) -> None:
        events = self.events
        if len(events) >= self.limit:
            drop = len(events) - self.capacity
            self.trimmed += drop
            del events[:drop]

    def note_retire(self, pc: int, raw: tuple) -> None:
        """One retired instruction (the stripped loop inlines this append)."""
        self.events.append((RETIRE, pc, raw))
        self._trim()

    def note_trap(self, pc: int, cause: str, cycle, instret: int,
                  detail: str) -> None:
        self.events.append((TRAP, pc, (cause, cycle, instret, detail)))
        self._trim()

    def note_syscall(self, pc: int, service: int) -> None:
        self.events.append((SYSCALL, pc, service))
        self._trim()

    def note_checkpoint(self, op: str, detail: str = "") -> None:
        self.events.append((CHECKPOINT, 0, (op, detail)))
        self._trim()

    def note_fault(self, target: str, detail: str = "") -> None:
        self.events.append((FAULT, 0, (target, detail)))
        self._trim()

    def mark(self, label: str, detail: str = "") -> None:
        self.events.append((MARK, 0, (label, detail)))
        self._trim()

    # -- reading -------------------------------------------------------------

    def total(self) -> int:
        """Events recorded since the last :meth:`reset` (incl. trimmed)."""
        return self.trimmed + len(self.events)

    def reset(self) -> None:
        self.events.clear()
        self.trimmed = 0

    def snapshot(self, reason: str = "", run_id: str | None = None,
                 shard: int | None = None, context: dict | None = None,
                 last: int | None = None) -> dict:
        """JSON-ready, deterministic rendering of the ring's tail.

        ``context`` carries run facts the events alone cannot (ways for
        the Qat bit-volume summary, command, program, backend).  No
        wall-clock fields: two snapshots of identical rings serialize to
        identical bytes.
        """
        keep = self.capacity if last is None else max(0, int(last))
        tail = self.events[-keep:] if keep else []
        context = dict(sorted((context or {}).items()))
        ways = context.get("ways")
        events = []
        qat_ops = 0
        qat_bits = 0
        for kind, pc, payload in tail:
            if kind == RETIRE:
                entry = {"kind": "retire", "pc": pc, "raw": list(payload)}
                qat = _qat_annotation(payload, ways)
                if qat is not None:
                    entry["qat"] = qat
                    qat_ops += 1
                    qat_bits += qat.get("bits") or 0
            elif kind == TRAP:
                cause, cycle, instret, detail = payload
                entry = {"kind": "trap", "pc": pc, "cause": cause,
                         "cycle": cycle, "instret": instret,
                         "detail": detail}
            elif kind == SYSCALL:
                entry = {"kind": "syscall", "pc": pc, "service": payload}
            elif kind == CHECKPOINT:
                entry = {"kind": "checkpoint", "op": payload[0],
                         "detail": payload[1]}
            elif kind == FAULT:
                entry = {"kind": "fault", "target": payload[0],
                         "detail": payload[1]}
            else:
                entry = {"kind": "mark", "label": payload[0],
                         "detail": payload[1]}
            events.append(entry)
        dropped = self.total() - len(tail)
        return {
            "blackbox": FORMAT_VERSION,
            "run_id": run_id,
            "shard": shard,
            "reason": reason,
            "capacity": self.capacity,
            "events_total": self.total(),
            "events_dropped": dropped,
            "context": context,
            "qat_summary": {"ops": qat_ops, "bits": qat_bits},
            "events": events,
        }


def _qat_annotation(raw, ways) -> dict | None:
    """``{"op", "ways", "bits"}`` when ``raw`` decodes to a Qat op.

    Derived at snapshot time (never on the hot path): the bit volume of
    a Qat op is the register size ``2**ways``, a pure function of the
    recorded word(s) and the run's ways.
    """
    if (raw[0] >> 12) not in (0x8, 0x9):
        return None
    from repro.errors import EncodingError
    from repro.isa.encoding import decode

    try:
        instr, _ = decode(list(raw), 0)
    except EncodingError:
        return None
    if not instr.mnemonic.startswith("q"):
        return None
    return {
        "op": instr.mnemonic,
        "ways": ways,
        "bits": (1 << ways) if isinstance(ways, int) else None,
    }


#: The process-global recorder every instrumented layer appends into.
def _from_env() -> FlightRecorder:
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if value in ("0", "off", "false"):
        return FlightRecorder(enabled=False)
    try:
        capacity = int(value) if value else DEFAULT_CAPACITY
    except ValueError:
        capacity = DEFAULT_CAPACITY
    return FlightRecorder(capacity=max(1, capacity))


RECORDER = _from_env()


# ---------------------------------------------------------------------------
# Spill files
# ---------------------------------------------------------------------------

def export_json(payload) -> str:
    """Canonical serialization: same content, same bytes."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def blackbox_dir() -> str:
    """Where parent-side spills land: ``$TANGLED_BLACKBOX_DIR``, else a
    ``blackbox/`` directory beside the run ledger database."""
    override = os.environ.get(DIR_ENV)
    if override:
        return override
    ledger = os.environ.get("TANGLED_LEDGER")
    base = os.path.dirname(ledger) if ledger else os.path.expanduser("~/.tangled")
    return os.path.join(base or ".", "blackbox")


def spill_path(run_id: str, shard: int | None = None,
               directory: str | None = None) -> str:
    name = f"blackbox-{run_id}.json" if shard is None \
        else f"blackbox-{run_id}-shard{shard}.json"
    return os.path.join(directory or blackbox_dir(), name)


def spill(path: str, reason: str, run_id: str | None = None,
          shard: int | None = None, context: dict | None = None,
          recorder: FlightRecorder | None = None) -> str:
    """Write the recorder's snapshot to ``path`` (creating directories)."""
    recorder = recorder if recorder is not None else RECORDER
    snap = recorder.snapshot(reason=reason, run_id=run_id, shard=shard,
                             context=context)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(export_json(snap))
    return path


def load_blackbox(path: str) -> dict:
    """Read a spilled blackbox file back, validating the format tag."""
    from repro.errors import ReproError

    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ReproError(f"cannot read blackbox {path!r}: {exc}") from None
    if not isinstance(doc, dict) or "blackbox" not in doc:
        raise ReproError(f"{path!r} is not a blackbox spill file")
    return doc


# ---------------------------------------------------------------------------
# Worker spool (survives the supervisor's SIGKILL)
# ---------------------------------------------------------------------------

def configure_spool(run_id: str, directory: str | None = None) -> str:
    """Arm worker self-dumps for one fan-out (parent, before spawning).

    Sets the spool environment so forked workers know where to spill;
    returns the directory.  Call :func:`clear_spool` when the fan-out
    is done so later in-process runs do not inherit it.
    """
    directory = directory or blackbox_dir()
    os.makedirs(directory, exist_ok=True)
    os.environ[SPOOL_ENV] = directory
    os.environ[SPOOL_RUN_ENV] = run_id
    return directory


def clear_spool() -> None:
    os.environ.pop(SPOOL_ENV, None)
    os.environ.pop(SPOOL_RUN_ENV, None)


def spool_file(shard: int) -> str | None:
    """This process's spool path for ``shard`` (None when unconfigured)."""
    directory = os.environ.get(SPOOL_ENV)
    run_id = os.environ.get(SPOOL_RUN_ENV)
    if not directory or not run_id:
        return None
    return spill_path(run_id, shard=shard, directory=directory)


#: Context dict merged into worker-side spool spills.  The campaign
#: layer refreshes it per task (program, sim, ways, backend, run,
#: attempt) so a spilled ring carries enough to interpret its events --
#: ``ways`` in particular drives the Qat bit-volume annotation.
WORKER_CONTEXT: dict = {}


def spool_spill(shard: int, reason: str,
                context: dict | None = None) -> str | None:
    """Worker-side spill for ``shard``; first spill wins, never raises.

    First-spill-wins because the first failing attempt ran in a worker
    with real history in its ring; retries land on freshly spawned
    replacements whose rings are nearly empty.
    """
    path = spool_file(shard)
    if path is None or os.path.exists(path):
        return path
    run_id = os.environ.get(SPOOL_RUN_ENV)
    try:
        return spill(path, reason, run_id=run_id, shard=shard,
                     context=context if context is not None
                     else dict(WORKER_CONTEXT))
    except Exception:
        return None


def spool_collect(shard: int) -> str | None:
    """Parent-side: the spool file a worker left for ``shard``, if any."""
    path = spool_file(shard)
    return path if path is not None and os.path.exists(path) else None


def spool_discard(shard: int) -> None:
    """Drop the spool file of a shard that ultimately succeeded."""
    path = spool_file(shard)
    if path is not None:
        try:
            os.unlink(path)
        except OSError:
            pass


def arm_deadline_dump(shard: int, timeout: float | None):
    """Arm a ``SIGALRM`` self-dump shortly *before* the shard deadline.

    The supervisor's deadline enforcement is a SIGKILL -- uncatchable --
    so the worker must dump ahead of it.  The timer fires at 80% of the
    budget, spills the ring, and returns (PEP 475 resumes whatever the
    worker was doing, so a shard finishing under the wire is unharmed).
    Returns a disarm callable (a no-op when timers are unavailable).
    """
    import signal

    if (timeout is None or timeout <= 0
            or not hasattr(signal, "setitimer")
            or spool_file(shard) is None):
        return lambda: None

    def _dump(signum, frame):
        spool_spill(shard, "deadline")

    try:
        previous = signal.signal(signal.SIGALRM, _dump)
        signal.setitimer(signal.ITIMER_REAL, max(0.05, timeout * 0.8))
    except (ValueError, OSError):
        return lambda: None

    def _disarm():
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        except (ValueError, OSError):
            pass

    return _disarm


# ---------------------------------------------------------------------------
# Rendering (``tangled blackbox``)
# ---------------------------------------------------------------------------

def render_blackbox(doc: dict, last: int | None = None) -> str:
    """Disassembled listing of a blackbox's final events.

    Retired instructions render through
    :func:`repro.asm.disasm.render_listing` (address patched to the
    recorded PC) and carry their Qat ways/bit-volume annotation; traps,
    syscalls, faults, checkpoints and marks render as indented
    annotation lines between them.
    """
    from repro.asm.disasm import render_listing

    events = doc.get("events", [])
    if last is not None:
        events = events[-max(0, int(last)):]
    head = f"== blackbox {doc.get('run_id') or '(unlabeled)'}"
    if doc.get("shard") is not None:
        head += f" shard {doc['shard']}"
    head += f" == reason: {doc.get('reason') or 'unknown'}"
    lines = [head]
    total = doc.get("events_total", len(events))
    lines.append(
        f"  {len(events)} of {total} recorded event(s) "
        f"(ring capacity {doc.get('capacity')})"
    )
    qat = doc.get("qat_summary") or {}
    if qat.get("ops"):
        lines.append(
            f"  qat: {qat['ops']} op(s), {qat.get('bits', 0)} bits touched"
        )
    for event in events:
        kind = event.get("kind")
        if kind == "retire":
            listing = render_listing(event["raw"])
            text = f"{event['pc']:04x}" + listing[4:]
            ann = event.get("qat")
            if ann:
                extra = f"  ; qat {ann['op']}"
                if ann.get("ways") is not None:
                    extra += f" ways={ann['ways']} bits={ann['bits']}"
                text += extra
            lines.append("  " + text)
        elif kind == "trap":
            cycle = "" if event.get("cycle") is None \
                else f" cycle={event['cycle']}"
            lines.append(
                f"  ** trap {event['cause']} @ pc={event['pc']:04x}"
                f"{cycle} instret={event.get('instret')}"
                + (f": {event['detail']}" if event.get("detail") else "")
            )
        elif kind == "syscall":
            lines.append(
                f"  -- syscall service={event['service']} "
                f"@ pc={event['pc']:04x}"
            )
        elif kind == "checkpoint":
            lines.append(
                f"  -- checkpoint {event['op']}"
                + (f": {event['detail']}" if event.get("detail") else "")
            )
        elif kind == "fault":
            lines.append(
                f"  !! fault injected: {event['target']}"
                + (f" ({event['detail']})" if event.get("detail") else "")
            )
        else:
            lines.append(
                f"  .. {event.get('label', 'mark')}"
                + (f": {event['detail']}" if event.get("detail") else "")
            )
    return "\n".join(lines)
