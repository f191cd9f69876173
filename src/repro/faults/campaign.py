"""Seeded soft-error campaigns over the Tangled/Qat simulators.

A campaign runs the same program ``N`` times, each run with a fresh
simulator and a deterministic per-run :class:`~repro.faults.inject.FaultPlan`
derived from the master seed, and classifies every run the way the
fault-tolerance literature does:

``detected``
    The fault tripped the machinery -- an architectural trap fired
    (illegal opcode, watchdog, Qat fault, ...) or a typed
    :class:`~repro.errors.ReproError` surfaced.
``masked``
    The run completed and the architectural result (GPRs + program
    output) matches the fault-free golden run: the flipped bit was
    dead state.
``silent``
    The run completed *wrong* -- silent data corruption, the case a
    real design must budget hardware against.

The report is a plain dict (JSON-ready, sorted keys, no timestamps), so
two invocations with the same arguments produce byte-identical output --
that determinism is asserted in CI.  When telemetry
(:mod:`repro.obs`) is active the classification counts also land on the
``faults.detected`` / ``faults.masked`` / ``faults.silent`` counters.
"""

from __future__ import annotations

import json
import sys
import time
from functools import lru_cache

from repro.cpu import new_simulator
from repro.cpu.batch import BatchFunctionalSimulator
from repro.errors import ReproError
from repro.faults.inject import FaultPlan
from repro.obs import flight as _flight
from repro.obs import runtime as _obs
from repro.runtime.supervisor import chaos_hook

#: Run outcome labels.  ``toxic`` is the supervised fan-out's poison
#: shard: a run whose worker crashed or hung on every allowed attempt
#: and was quarantined instead of aborting the campaign.
DETECTED, MASKED, SILENT, TOXIC = "detected", "masked", "silent", "toxic"

#: Watchdog slack: a faulted run may legitimately take longer than the
#: golden run (a corrupted branch can re-execute work) before we call it
#: runaway.
_WATCHDOG_FACTOR = 4
_WATCHDOG_SLACK = 64


@lru_cache(maxsize=None)
def _load_program(name: str):
    """Resolve a campaign program by name (lazy: pulls in repro.apps).

    Assembled once per process: campaign tasks carry only the program
    *name*, and nothing mutates a loaded ``Program``.
    """
    from repro.apps import compile_factor_program, fig10_program

    if name == "fig10":
        return fig10_program()
    if name == "factor":
        return compile_factor_program(15, 4, 4).program
    raise ReproError(f"unknown campaign program {name!r} (try fig10, factor)")


def _architectural_result(machine) -> tuple:
    """What a user of the run can observe: GPR file + program output."""
    return (tuple(machine.regs), tuple(machine.output))


def golden_run(program, sim: str = "functional", ways: int = 8,
               qat_backend: str = "dense") -> tuple[tuple, int]:
    """Fault-free reference execution: (architectural result, steps)."""
    reference = new_simulator(sim, ways, qat_backend)
    reference.load(program)
    steps = reference.advance(sys.maxsize)  # no budget: it runs to halt
    return _architectural_result(reference.machine), steps


def _worker_init() -> None:
    """Set up one campaign worker process.

    Workers forked from an instrumented parent must not write into its
    telemetry (the parent replays per-run hooks from the returned
    durations).
    """
    _obs.install(None)


def _enter_run(task: tuple, attempt: int = 0) -> None:
    """Open one run for the flight recorder.

    A boundary mark (the ring spans runs, so a post-mortem can tell
    whose events the tail belongs to) plus fresh spill context.
    """
    run, program, _, sim, ways, _, _, qat_backend = task[:8]
    if _flight.RECORDER.enabled:
        _flight.RECORDER.mark(
            "campaign.run", f"run={run} attempt={attempt} sim={sim}"
        )
    _flight.WORKER_CONTEXT.clear()
    _flight.WORKER_CONTEXT.update(
        program=program, sim=sim, ways=ways, qat_backend=qat_backend,
        run=run, attempt=attempt,
    )


def _fault_plan(task: tuple) -> FaultPlan:
    """The run's seeded plan (the same on every execution strategy)."""
    (run, _, seed, _, ways, faults_per_run, targets, _, _, golden_steps,
     mem_span, _) = task
    return FaultPlan.from_seed(
        seed * 1_000_003 + run,
        faults_per_run,
        max_step=golden_steps,
        ways=ways,
        targets=tuple(targets),
        mem_span=mem_span,
    )


def _classify(task: tuple, plan: FaultPlan, machine,
              error: str | None) -> dict:
    """The report entry of one finished run.

    A raised error or any trap record is ``detected``; otherwise the
    architectural result against the golden run decides ``masked`` or
    ``silent``.
    """
    run, golden = task[0], task[8]
    if error is not None or machine.traps:
        outcome = DETECTED
    elif _architectural_result(machine) == golden:
        outcome = MASKED
    else:
        outcome = SILENT
    return {
        "run": run,
        "seed": plan.seed,
        "outcome": outcome,
        "events": [e.as_dict() for e in plan.events],
        "traps": [r.as_dict() for r in machine.traps],
        "error": error,
    }


class _CampaignBatch(BatchFunctionalSimulator):
    """One lane per campaign task, opened as its run before it runs."""

    def __init__(self, chunk: list, attempt: int):
        task = chunk[0]
        super().__init__(len(chunk), ways=task[4], qat_backend=task[7],
                         sim=task[3])
        self.chunk = chunk
        self.attempt = attempt

    def run_lane(self, lane, *args):
        run = self.chunk[lane][0]
        # Marked *before* the chaos hook (a no-op outside workers) so a
        # chaos crash spills a ring already labeled with this run.
        _enter_run(self.chunk[lane], self.attempt)
        chaos_hook(run, self.attempt)
        return super().run_lane(lane, *args)


def _run_lanes(chunk: list, image, attempt: int = 0) -> list:
    """Execute campaign tasks as the lanes of one batch.

    Every run is a lane with its own :class:`FaultPlan`, classified by
    :func:`_classify`, so the merged report does not depend on how runs
    were packed.  Returns ``(detail, seconds, steps)`` per task: wall
    seconds are apportioned evenly across the lanes, and a run that
    raised reports no steps.  ``attempt`` is the supervisor's retry
    ordinal of a worker's run.
    """
    watchdog = chunk[0][11]
    plans = [_fault_plan(task) for task in chunk]
    subject = _CampaignBatch(chunk, attempt)
    subject.load(image)
    t0 = time.perf_counter()
    lane_steps = subject.run(
        watchdog, plans=plans,
        watchdog_detail=f"campaign watchdog: exceeded {watchdog} steps",
    )
    seconds = (time.perf_counter() - t0) / len(chunk)
    results = []
    for lane, task in enumerate(chunk):
        error = subject.errors[lane]
        detail = _classify(task, plans[lane], subject.lanes[lane].machine,
                           error)
        results.append((detail, seconds,
                        0 if error is not None else lane_steps[lane]))
    return results


def _single_run(task: tuple, attempt: int = 0) -> tuple[int, dict, float, int, int]:
    """Execute one faulted run in a worker; pure function of its task.

    Returns ``(run index, report entry, wall seconds, steps, worker)``
    so results can be merged deterministically regardless of worker
    scheduling; the trailing wall/steps/worker fields feed the progress
    layer and never enter the report.  ``attempt`` is the supervisor's
    retry ordinal (0 on the first execution); the result is attempt-
    independent, but the chaos hook uses it to model faults that heal
    on retry.
    """
    from repro.obs.progress import worker_ident

    ((detail, seconds, steps),) = _run_lanes(
        [task], _load_program(task[1]), attempt)
    return task[0], detail, seconds, steps, worker_ident()


class CampaignInterrupted(ReproError):
    """A fan-out campaign was interrupted (Ctrl-C) mid-flight.

    Carries the partial ``report`` (completed runs only, marked with
    ``"interrupted": true``) so the CLI can still flush it and record a
    ledger row with the ``interrupted`` exit status instead of losing
    the run to a traceback.  Already-completed shards were journaled,
    so ``tangled faults --resume <run-id>`` finishes the campaign.
    """

    def __init__(self, report: dict, done: int, total: int):
        self.report = report
        self.done = done
        self.total = total
        super().__init__(f"campaign interrupted after {done}/{total} runs")


def _toxic_detail(run: int, seed: int, outcome) -> dict:
    """Report entry of a quarantined (poison) shard."""
    return {
        "run": run,
        "seed": seed * 1_000_003 + run,
        "outcome": TOXIC,
        "events": [],
        "traps": [],
        "error": outcome.quarantine_message(),
        "failures": outcome.failure_kinds,
        "blackbox": getattr(outcome, "blackbox", None),
    }


def _campaign_report(program, sim, ways, qat_backend, seed, runs,
                     faults_per_run, targets, golden, golden_steps,
                     results: list[dict]) -> dict:
    """Fold run details into the JSON-ready campaign report."""
    counts = {DETECTED: 0, MASKED: 0, SILENT: 0, TOXIC: 0}
    for detail in results:
        counts[detail["outcome"]] += 1
    total = float(max(len(results), 1))
    return {
        "program": program,
        "sim": sim,
        "ways": ways,
        "qat_backend": qat_backend,
        "seed": seed,
        "runs": runs,
        "faults_per_run": faults_per_run,
        "targets": list(targets),
        "golden": {
            "r0": golden[0][0],
            "r1": golden[0][1],
            "output": list(golden[1]),
            "steps": golden_steps,
        },
        "summary": {
            "detected": counts[DETECTED],
            "masked": counts[MASKED],
            "silent": counts[SILENT],
            "toxic": counts[TOXIC],
            "detected_rate": round(counts[DETECTED] / total, 4),
            "masked_rate": round(counts[MASKED] / total, 4),
            "silent_rate": round(counts[SILENT] / total, 4),
            "toxic_rate": round(counts[TOXIC] / total, 4),
        },
        "runs_detail": results,
    }


def run_campaign(
    program: str = "fig10",
    runs: int = 20,
    seed: int = 7,
    sim: str = "functional",
    ways: int = 8,
    faults_per_run: int = 1,
    targets: tuple[str, ...] = ("gpr", "mem", "qreg"),
    qat_backend: str = "dense",
    jobs: int = 1,
    batch: int = 1,
    tracker=None,
    supervise=None,
    journal=None,
) -> dict:
    """Run a seeded soft-error campaign; returns the JSON-ready report.

    Every run gets its own simulator and a per-run fault plan seeded
    from ``seed`` and the run index, so the whole campaign is a pure
    function of its arguments.  Every RE chunk store belongs to one run
    (or one batch), so gate counts from earlier work (or an earlier
    campaign) can never bleed into this one's RE-backed runs.

    ``jobs > 1`` shards the runs across a *supervised* worker pool
    (:class:`repro.runtime.supervisor.Supervisor`): a worker that
    crashes or exceeds the shard timeout is killed and replaced and its
    run retried with backoff; a run that fails every allowed attempt is
    quarantined as outcome ``toxic`` instead of aborting the campaign.
    Each run is a pure function of ``(seed, run index)`` with its own
    simulator and stores, so the merged report -- results reordered by
    run index, counts recomputed in run order -- is byte-identical to
    the serial campaign whenever nothing was quarantined.
    ``supervise`` (a :class:`~repro.runtime.supervisor.SupervisorConfig`)
    tunes timeouts, retry budget, and the per-worker memory ceiling.

    ``journal`` (a :class:`repro.obs.ledger.ShardJournal`) records every
    completed run as it lands; a journal opened with ``resume=True``
    replays already-completed runs from the ledger and re-executes only
    the missing and toxic ones -- still byte-identical to a one-shot
    campaign.  A ``KeyboardInterrupt`` during the fan-out terminates the
    workers and raises :class:`CampaignInterrupted` carrying the partial
    report instead of losing the run.

    ``tracker`` (a :class:`repro.obs.progress.ProgressTracker`) receives
    one heartbeat per completed run -- worker id, wall seconds, steps --
    as results arrive, off the report path: the report bytes are
    identical with or without it.

    Every run, on any ``sim``, executes as a lane of a
    :class:`~repro.cpu.batch.BatchFunctionalSimulator`.  In-process runs
    are packed ``batch`` to a batch (a serial campaign is ``batch=1``,
    1-lane batches), and a ``--jobs`` worker runs its run as a 1-lane
    batch.  The lanes of a batch share the predecoded image and, on the
    RE backend, one chunk store and gate memo; unobserved functional and
    multi-cycle lanes of a batch of two or more start at their first
    fault step, forked from one fault-free run of the shared prefix
    (:mod:`repro.cpu.batch`).  Classification is per
    lane, so the report is byte-identical whatever ``batch`` and
    ``jobs`` are.  ``batch > 1`` and ``jobs > 1`` are mutually
    exclusive: the supervisor retries and quarantines single runs.
    """
    if runs <= 0:
        raise ReproError(f"runs must be positive, got {runs}")
    if jobs <= 0:
        raise ReproError(f"jobs must be positive, got {jobs}")
    if batch <= 0:
        raise ReproError(f"batch must be positive, got {batch}")
    if batch > 1 and jobs > 1:
        raise ReproError(
            "batch and jobs are mutually exclusive fan-out strategies; "
            "use --batch N or --jobs N, not both"
        )
    from repro.obs.ledger import SHARD_DONE, SHARD_TOXIC

    image = _load_program(program)
    golden, golden_steps = golden_run(image, sim=sim, ways=ways,
                                      qat_backend=qat_backend)
    # Concentrate memory faults on the loaded image plus a data margin.
    mem_span = max(64, 2 * len(getattr(image, "words", image)))
    watchdog = golden_steps * _WATCHDOG_FACTOR + _WATCHDOG_SLACK

    tasks = [
        (run, program, seed, sim, ways, faults_per_run, tuple(targets),
         qat_backend, golden, golden_steps, mem_span, watchdog)
        for run in range(runs)
    ]
    fingerprint = {
        "program": program, "runs": runs, "seed": seed, "sim": sim,
        "ways": ways, "faults_per_run": faults_per_run,
        "targets": list(targets), "qat_backend": qat_backend,
    }
    done: dict[int, dict] = {}
    if journal is not None:
        done = journal.begin("faults", fingerprint)
    completed: list[dict] = list(done.values())
    pending = [task for task in tasks if task[0] not in done]
    if tracker is not None and done:
        # Replayed shards never heartbeat; track only what will run.
        tracker.total = len(pending)

    def _settle(run_idx: int, detail: dict, seconds: float, steps: int,
                attempts: int, worker: int) -> None:
        payload = {"run": run_idx, "detail": detail,
                   "seconds": seconds, "steps": steps}
        completed.append(payload)
        if journal is not None:
            status = SHARD_TOXIC if detail["outcome"] == TOXIC \
                else SHARD_DONE
            journal.record(run_idx, status, attempts, payload)
        if tracker is not None:
            tracker.note(worker, seconds, steps=steps)

    interrupted = None
    if pending and jobs > 1 and len(pending) > 1:
        from repro.runtime.supervisor import (
            Supervisor,
            SupervisorConfig,
            SupervisorInterrupted,
        )

        config = supervise if supervise is not None \
            else SupervisorConfig(jobs=jobs)

        def _on_result(outcome) -> None:
            if outcome.ok:
                run_idx, detail, seconds, steps, worker = outcome.result
                _settle(run_idx, detail, seconds, steps,
                        outcome.attempts, worker)
            else:
                _settle(outcome.shard,
                        _toxic_detail(outcome.shard, seed, outcome),
                        0.0, 0, outcome.attempts, 0)

        supervisor = Supervisor(
            _single_run, config, initializer=_worker_init,
            on_event=(tracker.note_supervisor
                      if tracker is not None else None),
        )
        try:
            supervisor.run({task[0]: task for task in pending},
                           on_result=_on_result)
        except SupervisorInterrupted as stop:
            interrupted = stop
        if _obs.active:
            # The recovery tallies are parent-side state, published
            # whether or not anything failed -- a clean fan-out records
            # explicit zeros in the supervisor.* counter taxonomy.
            _obs.current().supervisor_run(supervisor.stats.as_dict())
    elif pending:
        from repro.obs.progress import worker_ident

        worker = worker_ident()
        for start in range(0, len(pending), batch):
            chunk = pending[start:start + batch]
            for task, (detail, seconds, steps) in zip(
                    chunk, _run_lanes(chunk, image)):
                _settle(task[0], detail, seconds, steps, 1, worker)
    if tracker is not None:
        tracker.finish()

    completed.sort(key=lambda payload: payload["run"])
    results = [payload["detail"] for payload in completed]
    if _obs.active:
        for payload in completed:
            # Per-run hook: outcome counters plus a run-duration
            # histogram, so ``tangled faults --stats`` shows both the
            # classification totals and the campaign's timing profile.
            # Replayed here (not in workers) so parallel campaigns feed
            # the same parent-process telemetry as serial ones.
            _obs.current().fault_run(payload["detail"]["outcome"],
                                     payload["seconds"])

    report = _campaign_report(program, sim, ways, qat_backend, seed, runs,
                              faults_per_run, targets, golden, golden_steps,
                              results)
    # Blackbox spool files collected from quarantined shards.  Only
    # present when something was actually quarantined, so a healed or
    # clean fan-out stays byte-identical to the serial report.
    blackboxes = sorted(
        detail["blackbox"] for detail in results if detail.get("blackbox")
    )
    if blackboxes:
        report["blackbox"] = blackboxes
    if interrupted is not None:
        report["interrupted"] = True
        raise CampaignInterrupted(report, done=len(completed), total=runs)
    return report


def render_report(report: dict) -> str:
    """Canonical JSON rendering (byte-identical for identical campaigns)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
