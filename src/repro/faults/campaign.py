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
import time
from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.faults.inject import FaultPlan, apply_event
from repro.faults.traps import TrapPolicy, fire_watchdog
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


@dataclass
class RunResult:
    """Classification of one faulted run."""

    run: int
    seed: int
    outcome: str
    events: list[dict] = field(default_factory=list)
    traps: list[dict] = field(default_factory=list)
    error: str | None = None

    def as_dict(self) -> dict:
        return {
            "run": self.run,
            "seed": self.seed,
            "outcome": self.outcome,
            "events": self.events,
            "traps": self.traps,
            "error": self.error,
        }


def _load_program(name: str):
    """Resolve a campaign program by name (lazy: pulls in repro.apps)."""
    from repro.apps import compile_factor_program, fig10_program

    if name == "fig10":
        return fig10_program()
    if name == "factor":
        return compile_factor_program(15, 4, 4).program
    raise ReproError(f"unknown campaign program {name!r} (try fig10, factor)")


def _new_simulator(sim: str, ways: int, trap_policy: TrapPolicy | None,
                   qat_backend: str = "dense"):
    from repro.cpu import FunctionalSimulator, MultiCycleSimulator, PipelinedSimulator

    if sim == "functional":
        return FunctionalSimulator(ways=ways, trap_policy=trap_policy,
                                   qat_backend=qat_backend)
    if sim == "multicycle":
        return MultiCycleSimulator(ways=ways, trap_policy=trap_policy,
                                   qat_backend=qat_backend)
    if sim == "pipelined":
        return PipelinedSimulator(ways=ways, trap_policy=trap_policy,
                                  qat_backend=qat_backend)
    raise ReproError(f"unknown simulator {sim!r}")


def _architectural_result(machine) -> tuple:
    """What a user of the run can observe: GPR file + program output."""
    return (tuple(int(r) for r in machine.regs), tuple(machine.output))


def _drive(sim, plan: FaultPlan | None, max_steps: int) -> int:
    """Step ``sim`` to halt, applying due fault events between steps.

    Returns the number of steps executed (the fan-out progress layer
    turns it into a steps/sec heartbeat)."""
    from repro.cpu import PipelinedSimulator

    pipeline = sim if isinstance(sim, PipelinedSimulator) else None
    machine = sim.machine
    step = 0
    while step < max_steps and not machine.halted:
        if plan is not None:
            for event in plan.due(step):
                apply_event(machine, event, pipeline=pipeline)
        sim.step()
        step += 1
    if not machine.halted:
        fire_watchdog(machine,
                      f"campaign watchdog: exceeded {max_steps} steps")
    return step


def golden_run(program, sim: str = "functional", ways: int = 8,
               qat_backend: str = "dense") -> tuple[tuple, int]:
    """Fault-free reference execution: (architectural result, steps)."""
    reference = _new_simulator(sim, ways, None, qat_backend=qat_backend)
    reference.load(program)
    steps = 0
    while not reference.machine.halted:
        reference.step()
        steps += 1
    return _architectural_result(reference.machine), steps


#: Per-worker-process program cache: campaign tasks arrive carrying only
#: the program *name*, and loading/assembling it once per worker (not
#: once per run) keeps the fan-out overhead flat.
_WORKER_IMAGES: dict[str, object] = {}


def _worker_image(program: str):
    image = _WORKER_IMAGES.get(program)
    if image is None:
        image = _WORKER_IMAGES[program] = _load_program(program)
    return image


def _worker_init() -> None:
    """Set up one campaign worker process.

    Workers forked from an instrumented parent must not write into its
    telemetry (the parent replays per-run hooks from the returned
    durations), and each gets pristine process-global pattern stores.
    """
    from repro.pattern import reset_default_stores

    _obs.install(None)
    reset_default_stores()
    _WORKER_IMAGES.clear()


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
    return RunResult(
        run=run,
        seed=plan.seed,
        outcome=outcome,
        events=[e.as_dict() for e in plan.events],
        traps=[r.as_dict() for r in machine.traps],
        error=error,
    ).as_dict()


def _single_run(task: tuple, attempt: int = 0) -> tuple[int, dict, float, int, int]:
    """Execute one faulted run; pure function of its task tuple.

    Returns ``(run index, RunResult dict, wall seconds, steps, worker)``
    so results can be merged deterministically regardless of worker
    scheduling; the trailing wall/steps/worker fields feed the progress
    layer and never enter the report.  ``attempt`` is the supervisor's
    retry ordinal (0 on the first execution); the result is attempt-
    independent, but the chaos hook uses it to model faults that heal
    on retry.
    """
    from repro.obs.progress import worker_ident

    (run, program, _, sim, ways, _, _, qat_backend, _, _, _,
     watchdog) = task
    # Recorded *before* the chaos hook so a chaos crash spills a ring
    # already labeled with this run.
    _enter_run(task, attempt)
    chaos_hook(run, attempt)
    plan = _fault_plan(task)
    subject = _new_simulator(sim, ways, None, qat_backend=qat_backend)
    subject.load(_worker_image(program))
    t0 = time.perf_counter()
    steps, error = 0, None
    try:
        steps = _drive(subject, plan, watchdog)
    except ReproError as exc:
        error = str(exc)
    detail = _classify(task, plan, subject.machine, error)
    return run, detail, time.perf_counter() - t0, steps, worker_ident()


def _batch_pending(pending: list, batch: int, image, settle) -> None:
    """Execute pending campaign tasks in lane batches, in-process.

    Each chunk of up to ``batch`` tasks becomes one
    :class:`~repro.cpu.batch.BatchFunctionalSimulator`: every run is a
    lane with its own :class:`FaultPlan`, opened for the flight recorder
    and classified exactly like :func:`_single_run`, so the merged
    report is byte-identical to the serial campaign.  Wall seconds are
    apportioned evenly across the chunk's lanes for the progress
    heartbeats (never part of the report).
    """
    from repro.cpu.batch import BatchFunctionalSimulator
    from repro.obs.progress import worker_ident

    class CampaignBatch(BatchFunctionalSimulator):
        """One lane per task; each opens as its run, like a serial run."""

        def __init__(self, chunk):
            super().__init__(len(chunk), ways=chunk[0][4],
                             qat_backend=chunk[0][7])
            self.chunk = chunk

        def run_lane(self, lane, *args):
            _enter_run(self.chunk[lane])
            return super().run_lane(lane, *args)

    worker = worker_ident()
    for chunk_start in range(0, len(pending), batch):
        chunk = pending[chunk_start:chunk_start + batch]
        watchdog = chunk[0][11]
        plans = [_fault_plan(task) for task in chunk]
        subject = CampaignBatch(chunk)
        subject.load(image)
        t0 = time.perf_counter()
        lane_steps = subject.run(
            watchdog, plans=plans,
            watchdog_detail=f"campaign watchdog: exceeded {watchdog} steps",
        )
        seconds = (time.perf_counter() - t0) / len(chunk)
        for lane, task in enumerate(chunk):
            error = subject.errors[lane]
            detail = _classify(task, plans[lane], subject.lanes[lane].machine,
                               error)
            # A run that raised reports no steps, as the serial path does.
            steps = 0 if error is not None else int(lane_steps[lane])
            settle(task[0], detail, seconds, steps, 1, worker)


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
    """RunResult-shaped dict for a quarantined (poison) shard."""
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
    function of its arguments.  The process-global pattern stores are
    reset first so chunk interning from earlier work (or an earlier
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

    ``batch > 1`` is the third execution strategy: runs are packed into
    lane batches (:mod:`repro.cpu.batch`), one process, each lane a
    functional machine on the stripped loop; RE lanes share one chunk
    store and gate memo.  Classification is per lane and the merged
    report is byte-identical to the serial and ``--jobs`` paths.  Batch
    mode requires the functional simulator (the timing models have no
    batched counterpart) and is mutually exclusive with ``jobs > 1``.
    """
    if runs <= 0:
        raise ReproError(f"runs must be positive, got {runs}")
    if jobs <= 0:
        raise ReproError(f"jobs must be positive, got {jobs}")
    if batch <= 0:
        raise ReproError(f"batch must be positive, got {batch}")
    if batch > 1 and sim != "functional":
        raise ReproError(
            f"batch campaigns need the functional simulator, got {sim!r} "
            f"(the timing models have no batched counterpart)"
        )
    if batch > 1 and jobs > 1:
        raise ReproError(
            "batch and jobs are mutually exclusive fan-out strategies; "
            "use --batch N or --jobs N, not both"
        )
    from repro.obs.ledger import SHARD_DONE, SHARD_TOXIC
    from repro.pattern import reset_default_stores

    reset_default_stores()
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
        _WORKER_IMAGES.setdefault(program, image)

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
    elif pending and batch > 1:
        _WORKER_IMAGES[program] = image
        _batch_pending(pending, batch, image, _settle)
    elif pending:
        _WORKER_IMAGES[program] = image
        for task in pending:
            run_idx, detail, seconds, steps, worker = _single_run(task)
            _settle(run_idx, detail, seconds, steps, 1, worker)
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
