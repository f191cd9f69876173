"""Command-line tools for the Tangled/Qat reproduction.

Installed as the ``tangled`` console script::

    tangled asm  program.s [-o program.hex]     assemble to hex words
    tangled dis  program.hex                    disassemble
    tangled run  program.s [--sim pipelined]    assemble + execute
    tangled run  program.s --qat-backend re     ... on the RE-compressed Qat file
    tangled run  program.s --stats              ... plus a telemetry report
    tangled run  program.s --trace-out t.json   ... plus a Chrome trace
    tangled factor 221 --bits 5                 PBP prime factoring
    tangled verilog qatnext --ways 8            emit the Figure 7/8 Verilog
    tangled fig10 [--stats]                     run the paper's listing
    tangled faults --seed 7 --runs 20           seeded soft-error campaign
    tangled faults --jobs 8 --shard-timeout 60  supervised fan-out
    tangled faults --resume 3f2a...             finish an interrupted campaign
    tangled profile program.s                   per-PC cycle attribution
    tangled profile fig10 --trace-out f.json    ... plus a flamegraph
    tangled report                              the recorded-run ledger
    tangled report --label fig10.re             a label's trajectory
    tangled report --compare A B --export json  byte-stable comparison
    tangled blackbox <run-id>                   post-mortem flight recorder
    tangled blackbox box.json --export json     ... as byte-stable JSON

Every subcommand prints to stdout and exits non-zero on error, so the
tools compose in shell pipelines.  ``--stats``/``--trace-out`` route the
whole execution through :mod:`repro.obs`: the report covers pipeline
CPI/stalls, Qat op and AoB-bit volume, and chunkstore compression; the
trace file loads in ``chrome://tracing`` or https://ui.perfetto.dev.
``profile`` goes further -- a ``perf annotate``-style listing saying
*which instruction* the cycles went to and who it stalled on (see
docs/OBSERVABILITY.md).

Every ``run|fig10|faults|profile`` invocation is additionally
recorded in the persistent run ledger (``~/.tangled/ledger.db``,
overridable with ``TANGLED_LEDGER``, opt out per command with
``--no-ledger``): run id, resolved config, wall time, exit status, trap
summary, the deterministic counter snapshot, per-worker ``--jobs``
progress gauges, and emitted artifact paths.  ``tangled report`` reads
it back as trajectories and side-by-side comparisons.

Exit codes: 0 success, 1 error (I/O, bad arguments, simulator fault),
2 command-line usage error (argparse), 3 every quarantined shard of a
``--jobs`` fan-out died to timeouts alone, 4 shards were quarantined as
toxic for any other mix of failures, 130 interrupted (Ctrl-C; the
partial report is still flushed and the run recorded, and
``--resume <run-id>`` finishes it).  The taxonomy lives in
:mod:`repro.errors` (``EXIT_OK`` .. ``EXIT_INTERRUPTED``) -- this
module only imports it.

Every execution command keeps the architectural flight recorder
(:mod:`repro.obs.flight`) armed: on an abnormal end -- a trap-halted
run, a simulator error, Ctrl-C, or a worker killed at its
``--shard-timeout`` deadline -- the final ring contents spill to a
``blackbox-<run-id>[-shardN].json`` beside the ledger, linked in the
run's artifacts.  ``tangled blackbox <run-id|path>`` renders it as a
disassembled listing (``--export json`` is byte-stable).
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
import uuid
from contextlib import contextmanager

from repro.errors import (
    EXIT_FAILURE,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_TIMEOUT,
    EXIT_TOXIC_SHARDS,
    ReproError,
)


def _quarantine_status(failure_lists: list) -> int:
    """Exit status from the failure kinds of every quarantined shard:
    :data:`EXIT_TIMEOUT` when timeouts are the *only* kind observed,
    :data:`EXIT_TOXIC_SHARDS` for anything else, :data:`EXIT_OK` for no
    quarantine."""
    if not failure_lists:
        return EXIT_OK
    kinds = {kind for failures in failure_lists for kind in failures}
    return EXIT_TIMEOUT if kinds == {"timeout"} else EXIT_TOXIC_SHARDS


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as handle:
        return handle.read()


class _TelemetryScope:
    """Enable telemetry for one command when ``--stats``/``--trace-out``
    were given; print the report and write the trace on exit."""

    def __init__(self, args: argparse.Namespace):
        self.stats = getattr(args, "stats", False)
        self.trace_out = getattr(args, "trace_out", None)
        self.telemetry = None

    def __enter__(self):
        if self.stats or self.trace_out:
            from repro import obs

            self.telemetry = obs.enable()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.telemetry is None:
            return False
        from repro import obs

        obs.disable()
        if exc_type is None:
            if self.stats:
                print(self.telemetry.report())
            if self.trace_out:
                self.telemetry.write_chrome_trace(self.trace_out)
                print(f"chrome trace -> {self.trace_out}")
        return False


def _sim_counters(sim, kind: str) -> dict:
    """Deterministic counters straight off the simulator.

    The ledger's fallback when no telemetry was captured for the run
    (no ``--stats``/``--trace-out``): enough to draw instruction/CPI
    trajectories without slowing the fast path down with a capture.
    """
    counters = {"cpu.instructions": sim.machine.instret}
    if kind == "multicycle":
        counters["pipeline.cycles"] = sim.cycles
        counters["pipeline.cpi"] = round(sim.cpi, 6)
    elif kind == "pipelined":
        for key, value in sim.stats.as_dict().items():
            counters[f"pipeline.{key}"] = value
    return counters


def _trap_summary(machine) -> dict | None:
    """Cause-keyed trap counts for the ledger row (None when clean)."""
    if not machine.traps:
        return None
    causes: dict[str, int] = {}
    for record in machine.traps:
        causes[record.cause.value] = causes.get(record.cause.value, 0) + 1
    return {"count": len(machine.traps), "causes": dict(sorted(causes.items()))}


class _LedgerScope:
    """Record one CLI invocation into the persistent run ledger.

    Commands attach what they learn (telemetry handle, fallback
    counters, rate steps, trap summary, worker gauges, artifact paths);
    :meth:`finish` turns it into one ledger row carrying the resolved
    config and exit status.  Recording is best-effort: a ledger failure
    warns on stderr and never changes the command's outcome.  ``--no-ledger``
    (or a falsy ``TANGLED_LEDGER``-resolved path failure) disables it.
    """

    def __init__(self, args: argparse.Namespace, command: str, label: str):
        self.enabled = not getattr(args, "no_ledger", False)
        self.command = command
        self.label = label
        # Pre-generated so sharded commands can journal shard results
        # under this id while the run is still in flight; the final
        # row is recorded under the same id at :meth:`finish`.
        self.run_id = uuid.uuid4().hex[:12]
        self.config = {
            key: value
            for key, value in sorted(vars(args).items())
            if key not in ("func", "command", "no_ledger")
            and not callable(value)
        }
        self.telemetry = None
        self.counters: dict = {}
        self.rate_steps: int | None = None
        self.traps: dict | None = None
        self.workers: dict | None = None
        self.artifacts: list[str] = []
        self.status = 0
        self._t0 = time.perf_counter()

    def add_artifact(self, path) -> None:
        if path and path != "-":
            self.artifacts.append(str(path))

    def spill_blackbox(self, reason: str) -> str | None:
        """Dump the flight recorder to a blackbox file and link it.

        Called on abnormal ends (trap-halt, error, Ctrl-C).  Best-effort
        like the rest of the ledger: an empty ring or an unwritable
        directory never changes the command's outcome.
        """
        try:
            from repro.obs import flight

            if not flight.RECORDER.enabled or not flight.RECORDER.events:
                return None
            path = flight.spill_path(self.run_id)
            flight.spill(path, reason, run_id=self.run_id,
                         context={"command": self.command,
                                  "label": self.label})
            self.add_artifact(path)
            print(f"tangled: blackbox -> {path}", file=sys.stderr)
            return path
        except Exception as exc:  # forensics must never mask the error
            print(f"tangled: blackbox: {exc} (not written)",
                  file=sys.stderr)
            return None

    def finish(self, status: int) -> None:
        if not self.enabled:
            return
        wall = time.perf_counter() - self._t0
        try:
            from repro.obs import ledger as ledger_mod

            counters, progress = ledger_mod.scalar_snapshot(self.telemetry)
            if not counters:
                counters = dict(self.counters)
            workers = self.workers if self.workers is not None else \
                (progress or None)
            rate = None
            if self.rate_steps and wall > 0:
                rate = {
                    "steps": self.rate_steps,
                    "steps_per_second": round(self.rate_steps / wall),
                }
            with ledger_mod.open_ledger() as ledger:
                ledger.record(
                    command=self.command,
                    label=self.label,
                    run_id=self.run_id,
                    config=self.config,
                    counters=counters,
                    status=status,
                    wall_seconds=round(wall, 6),
                    traps=self.traps,
                    rate=rate,
                    workers=workers,
                    artifacts=self.artifacts,
                )
        except Exception as exc:  # never fail the run over bookkeeping
            print(f"tangled: ledger: {exc} (run not recorded)",
                  file=sys.stderr)


@contextmanager
def _ledger_scope(args: argparse.Namespace, command: str, label: str):
    """Context manager recording the command on both success and error.

    Also owns the flight recorder for the invocation: the ring is reset
    at entry (one command, one recording), marked with the command name,
    and spilled to a linked blackbox artifact when the command ends in
    an error or a Ctrl-C.  Any worker spool configured by
    :func:`_shard_setup` is cleared on the way out.
    """
    from repro.obs import flight

    scope = _LedgerScope(args, command, label)
    flight.RECORDER.reset()
    flight.RECORDER.mark(f"cli.{command}", label)
    try:
        yield scope
    except KeyboardInterrupt:
        # Ctrl-C still leaves a queryable row: the run happened, it was
        # interrupted, and its journaled shards are the resume target.
        scope.spill_blackbox("interrupt")
        scope.finish(EXIT_INTERRUPTED)
        raise
    except BaseException:
        scope.spill_blackbox("error")
        scope.finish(EXIT_FAILURE)
        raise
    else:
        scope.finish(scope.status)
    finally:
        flight.clear_spool()


def _source_stem(source: str) -> str:
    if source == "-":
        return "stdin"
    return os.path.splitext(os.path.basename(source))[0] or "stdin"


class _StatusLine:
    """Throttled stderr progress sink for ``ProgressTracker``.

    On a TTY the line rewrites in place (``\\r`` + pad-erase, clamped
    to the terminal width so a narrow window never wraps the rewrite
    into a torn stack of lines) -- a long fan-out shows one live gauge
    instead of scrolling hundreds of lines.  :meth:`clear` erases it
    and :meth:`println` prints durably; ``ProgressTracker.finish``
    calls both so the final summaries never interleave with a stale
    status line.  On a non-TTY (CI logs, pipes) the throttled rewrite
    is suppressed entirely -- repeating a growing gauge line would just
    accumulate noise in the log -- while :meth:`println` still lands
    the durable final line and :meth:`clear` is a no-op.
    """

    def __init__(self, stream=None, width: int | None = None):
        self.stream = stream if stream is not None else sys.stderr
        isatty = getattr(self.stream, "isatty", None)
        self.tty = bool(isatty()) if callable(isatty) else False
        self._width = 0
        if width is not None:
            self.columns = width
        elif self.tty:
            self.columns = shutil.get_terminal_size().columns
        else:
            self.columns = 0

    def __call__(self, line: str) -> None:
        if not self.tty:
            return
        # Leave the last column free: writing into it makes most
        # terminals wrap, which breaks the \r-rewrite invariant.
        if self.columns > 1 and len(line) > self.columns - 1:
            line = line[: self.columns - 1]
        pad = max(self._width - len(line), 0)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._width = len(line)

    def clear(self) -> None:
        if self.tty and self._width:
            self.stream.write("\r" + " " * self._width + "\r")
            self.stream.flush()
            self._width = 0

    def println(self, line: str) -> None:
        self.clear()
        print(line, file=self.stream)


#: ``--resume`` restores these fingerprint keys onto the argparse
#: namespace so the bare ``tangled faults --resume <id>`` finishes the
#: original campaign.  The list-valued ``targets`` key is handled
#: separately in :func:`_adopt_resume_args`.
_RESUME_ARGS = ("program", "runs", "seed", "sim", "ways",
                "faults_per_run", "qat_backend")


def _adopt_resume_args(args: argparse.Namespace) -> None:
    """Restore the journaled campaign shape for ``tangled faults --resume``.

    The journal's fingerprint row defines *what* ran -- program, seed,
    runs, fault plan -- so a resume adopts those values instead
    of requiring the caller to repeat them; only the execution knobs
    (``--jobs``, ``--shard-timeout``, ``--retries``,
    ``--worker-mem-mib``) come from the new command line.  ``args.resume``
    is replaced by the full run id (resolved like ledger run ids,
    prefixes allowed).  The runner
    re-verifies the fingerprint when it opens the journal, so a drifted
    journal between this read and that open is still refused.  A
    journal of another kind (an older ledger can hold a ``"bench"``
    one) is refused by name.
    """
    if getattr(args, "resume", None) is None:
        return
    if args.no_ledger:
        raise ReproError(
            "--resume reads the shard journal in the run ledger; "
            "drop --no-ledger"
        )
    from repro.obs import ledger as ledger_mod

    args.resume = ledger_mod.resolve_journal_run(args.resume)
    record = ledger_mod.journal_fingerprint(args.resume)
    if record.get("kind") != "faults":
        raise ReproError(
            f"run {args.resume!r} journaled a {record.get('kind')!r} "
            f"run; resume it with: tangled {record.get('kind')} "
            f"--resume {args.resume}"
        )
    fingerprint = record.get("fingerprint", {})
    for key in _RESUME_ARGS:
        if key in fingerprint:
            setattr(args, key, fingerprint[key])
    if "targets" in fingerprint:
        args.targets = ",".join(fingerprint["targets"])


def _shard_setup(args: argparse.Namespace, led: _LedgerScope):
    """``(supervise, journal)`` for the fault campaign's CLI arguments.

    The supervision config exists only for ``--jobs > 1`` (the serial
    path needs no worker pool); the shard journal exists whenever the
    ledger does -- serial campaigns journal too, so even a Ctrl-C that
    never reached the fan-out machinery leaves a resumable trail.  With
    ``--resume`` the journal reopens the *original* run's id, which
    :func:`_adopt_resume_args` has already checked and resolved, so
    repeated resumes keep accumulating under one journal.
    """
    from repro.obs import ledger as ledger_mod

    supervise = None
    if args.jobs > 1:
        from repro.runtime.supervisor import SupervisorConfig

        supervise = SupervisorConfig(
            jobs=args.jobs,
            shard_timeout=args.shard_timeout,
            max_attempts=1 + max(args.retries, 0),
            worker_mem_mib=args.worker_mem_mib,
        )
    journal = None
    if args.resume is not None:
        journal = ledger_mod.ShardJournal(args.resume, resume=True)
    elif led.enabled:
        journal = ledger_mod.ShardJournal(led.run_id)
    if led.enabled:
        # Arm the worker-side blackbox spool: forked workers inherit the
        # spool env and self-dump their rings on crash / deadline; the
        # supervisor collects the files for toxic shards only.
        from repro.obs import flight

        flight.configure_spool(led.run_id)
    return supervise, journal


def _resume_hint(journal, action: str) -> str:
    """``"; <action>: tangled faults --resume <id>"`` while journaling."""
    if journal is None or not journal.enabled:
        return ""
    return f"; {action}: tangled faults --resume {journal.run_id}"


def cmd_asm(args: argparse.Namespace) -> int:
    from repro.asm import assemble

    program = assemble(_read_source(args.source))
    lines = [f"{word:04x}" for word in program.words]
    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"{len(program.words)} words -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_dis(args: argparse.Namespace) -> int:
    from repro.asm.disasm import render_listing

    words = [int(tok, 16) for tok in _read_source(args.image).split()]
    print(render_listing(words))
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    from repro.asm import assemble
    from repro.cpu import PipelineConfig, new_simulator

    label = f"run.{_source_stem(args.source)}.{args.sim}.{args.qat_backend}"
    with _ledger_scope(args, "run", label) as led:
        program = assemble(_read_source(args.source))
        config = None
        if args.sim == "pipelined":
            config = PipelineConfig(stages=args.stages,
                                    forwarding=not args.no_forwarding)
        sim = new_simulator(args.sim, args.ways, args.qat_backend,
                            config=config)
        sim.load(program)
        machine = sim.machine
        try:
            with _TelemetryScope(args) as tel:
                led.telemetry = tel.telemetry
                sim.run(args.limit)
                for chunk in machine.output:
                    sys.stdout.write(chunk)
                if machine.output:
                    print()
                print("registers:",
                      " ".join(f"${i}={machine.read_reg(i)}"
                               for i in range(8)))
                if args.sim == "multicycle":
                    print(f"cycles: {sim.cycles}  cpi: {sim.cpi:.3f}")
                elif args.sim == "pipelined":
                    stats = sim.stats.as_dict()
                    print(
                        f"cycles: {stats['cycles']}  cpi: {stats['cpi']}  "
                        f"stalls: {stats['stall_data']} data, "
                        f"{stats['fetch_extra']} fetch, "
                        f"{stats['branch_flushes']} flushes"
                    )
                if args.sim != "pipelined":
                    print(f"instructions: {machine.instret}")
        finally:
            # Even a run that dies mid-flight (trap escalated to an
            # error) leaves its trap summary and counters in the ledger.
            led.counters = _sim_counters(sim, args.sim)
            led.rate_steps = machine.instret
            led.traps = _trap_summary(machine)
        led.add_artifact(getattr(args, "trace_out", None))
        if machine.traps:
            # A trap-halted run ended abnormally even though the
            # simulator returned: keep the forensic trail.
            led.spill_blackbox("trap-halt")
            led.status = EXIT_FAILURE
            return EXIT_FAILURE
    return EXIT_OK


def cmd_factor(args: argparse.Namespace) -> int:
    from repro.apps import factor_word_level

    # Default width fits n itself, so the trivial (n, 1) pair -- and hence
    # any factor -- is representable (Figure 9 uses 4 bits for n = 15).
    bits = args.bits or max(2, args.n.bit_length())
    result = factor_word_level(
        args.n,
        bits,
        bits,
        backend="pattern" if args.pattern else "auto",
        chunk_ways=args.chunk_ways,
    )
    print(f"n = {args.n}  ({2 * bits}-way entanglement)")
    print("factor pairs:", result.pairs)
    if result.nontrivial:
        print("nontrivial factors:", result.nontrivial)
    else:
        print("no nontrivial factors (prime or out of range)")
    return EXIT_OK


def cmd_verilog(args: argparse.Namespace) -> int:
    from repro.hw.verilog import emit_design_bundle, emit_qat_alu, emit_qathad, emit_qatnext

    emitters = {
        "qathad": emit_qathad,
        "qatnext": emit_qatnext,
        "qatalu": emit_qat_alu,
        "all": emit_design_bundle,
    }
    sys.stdout.write(emitters[args.module](args.ways))
    return EXIT_OK


def cmd_fig10(args: argparse.Namespace) -> int:
    from repro.apps import fig10_program, run_factor_program

    label = f"fig10.{args.sim}.{args.qat_backend}"
    with _ledger_scope(args, "fig10", label) as led:
        with _TelemetryScope(args) as tel:
            led.telemetry = tel.telemetry
            sim, (r0, r1) = run_factor_program(
                fig10_program(), ways=args.ways, simulator=args.sim,
                qat_backend=args.qat_backend,
            )
            print(f"Figure 10 on the {args.sim} simulator "
                  f"({sim.machine.qat.describe()} Qat):")
            print(f"  $0 = {r0}   $1 = {r1}")
            if args.sim == "pipelined":
                print(f"  {sim.stats.as_dict()}")
        led.counters = _sim_counters(sim, args.sim)
        led.rate_steps = sim.machine.instret
        led.traps = _trap_summary(sim.machine)
        led.add_artifact(getattr(args, "trace_out", None))
    return EXIT_OK


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.faults.campaign import (
        CampaignInterrupted,
        render_report,
        run_campaign,
    )
    from repro.obs.progress import ProgressTracker

    _adopt_resume_args(args)
    label = f"faults.{args.program}.{args.sim}.{args.qat_backend}"
    with _ledger_scope(args, "faults", label) as led:
        with _TelemetryScope(args) as tel:
            led.telemetry = tel.telemetry
            supervise, journal = _shard_setup(args, led)
            tracker = ProgressTracker(
                total=args.runs, what="runs",
                emit=_StatusLine() if args.jobs > 1 or args.batch > 1
                else None,
            )
            status = 0
            try:
                report = run_campaign(
                    program=args.program,
                    runs=args.runs,
                    seed=args.seed,
                    sim=args.sim,
                    ways=args.ways,
                    faults_per_run=args.faults_per_run,
                    targets=tuple(args.targets.split(",")),
                    qat_backend=args.qat_backend,
                    jobs=args.jobs,
                    batch=args.batch,
                    tracker=tracker,
                    supervise=supervise,
                    journal=journal,
                )
            except CampaignInterrupted as stop:
                report = stop.report
                status = EXIT_INTERRUPTED
                print(f"tangled: faults: interrupted after {stop.done}/"
                      f"{stop.total} runs"
                      f"{_resume_hint(journal, 'resume with')}",
                      file=sys.stderr)
            led.workers = tracker.summary()
            # Worker blackboxes collected from toxic shards' spools:
            # link each one so ``tangled blackbox <run-id>`` finds them.
            for box in report.get("blackbox", ()):
                led.add_artifact(box)
            led.counters = {
                f"faults.{key}": value
                for key, value in report["summary"].items()
            }
            for kind, count in sorted(tracker.supervisor.items()):
                led.counters[f"supervisor.{kind}"] = count
            led.traps = {
                "trapped_runs": sum(
                    1 for run in report["runs_detail"] if run["traps"]
                ),
            }
            toxic = [run["failures"] for run in report["runs_detail"]
                     if run["outcome"] == "toxic"]
            if status == 0:
                status = _quarantine_status(toxic)
                if status:
                    kind = "timeout" if status == EXIT_TIMEOUT else "toxic"
                    print(f"tangled: faults: {len(toxic)} shard(s) "
                          f"quarantined ({kind}; exit {status})"
                          f"{_resume_hint(journal, 'retry them with')}",
                          file=sys.stderr)
            led.status = status
            if args.summary_only:
                report.pop("runs_detail")
            sys.stdout.write(render_report(report))
    return status


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.cpu import PipelineConfig
    from repro.obs.profile import (
        profile_program,
        render_annotate,
        write_flamegraph,
    )

    stem = "fig10" if args.source == "fig10" else _source_stem(args.source)
    label = f"profile.{stem}.{args.sim}.{args.qat_backend}"
    with _ledger_scope(args, "profile", label) as led:
        if args.source == "fig10":
            from repro.apps import fig10_program

            program = fig10_program()
            title = "fig10 (the paper's listing)"
        else:
            from repro.asm import assemble

            program = assemble(_read_source(args.source))
            title = args.source
        config = None
        if args.sim == "pipelined":
            config = PipelineConfig(
                stages=args.stages, forwarding=not args.no_forwarding
            )
        sim, profiler = profile_program(
            program, ways=args.ways, simulator=args.sim, config=config,
            max_cycles=args.limit, qat_backend=args.qat_backend,
        )
        if args.json == "-":
            sys.stdout.write(profiler.to_json())
        else:
            print(render_annotate(profiler, words=program.words,
                                  title=f"{title} [{args.sim}]"))
            if args.json:
                with open(args.json, "w", encoding="utf-8") as handle:
                    handle.write(profiler.to_json())
                print(f"profile json -> {args.json}")
                led.add_artifact(args.json)
        if args.trace_out:
            write_flamegraph(args.trace_out, profiler)
            if args.json != "-":
                print(f"flamegraph trace -> {args.trace_out}")
            led.add_artifact(args.trace_out)
        led.counters = {
            "profile.total_cycles": profiler.total_cycles,
            "cpu.instructions": sim.machine.instret,
        }
        led.rate_steps = sim.machine.instret
        led.traps = _trap_summary(sim.machine)
    return EXIT_OK


def cmd_blackbox(args: argparse.Namespace) -> int:
    from repro.obs import flight

    if os.path.exists(args.target):
        paths = [args.target]
    else:
        from repro.obs import ledger as ledger_mod

        with ledger_mod.open_ledger(args.ledger) as ledger:
            run = ledger.resolve(args.target)
        paths = [
            path for path in run.artifacts
            if os.path.basename(path).startswith("blackbox-")
        ]
        if not paths:
            raise ReproError(
                f"run {run.id} has no blackbox artifacts (it ended "
                f"cleanly, or the spill predates this ledger)"
            )
    docs = [flight.load_blackbox(path) for path in paths]
    if args.export == "json":
        # Deterministic: single spill exports bare, several export as a
        # sorted collection keyed by their spill file names.
        if len(docs) == 1:
            sys.stdout.write(flight.export_json(docs[0]))
        else:
            bundle = {
                "blackboxes": {
                    os.path.basename(path): doc
                    for path, doc in sorted(zip(paths, docs))
                }
            }
            sys.stdout.write(flight.export_json(bundle))
    else:
        for index, doc in enumerate(docs):
            if index:
                print()
            print(flight.render_blackbox(doc, last=args.last))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import ledger as ledger_mod

    with ledger_mod.open_ledger(args.ledger) as ledger:
        if args.compare:
            view = ledger_mod.compare_view(
                ledger, args.compare[0], args.compare[1],
                counter_threshold=args.counter_threshold,
                time_threshold=args.time_threshold,
            )
        elif args.label:
            view = ledger_mod.trajectory_view(ledger, args.label,
                                              last=args.last)
        else:
            view = ledger_mod.runs_view(ledger, last=args.last)
    if args.export == "json":
        sys.stdout.write(ledger_mod.export_json(view))
    else:
        print(ledger_mod.render_view(view))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tangled", description="Tangled/Qat reproduction tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qat_backend(p):
        p.add_argument("--qat-backend", choices=("dense", "re"),
                       default="dense",
                       help="Qat register substrate: dense AoB matrix "
                            "(hardware-faithful, ways <= 26) or 're' "
                            "run-length compression (bounded memory at "
                            "wide ways)")

    def add_ledger_opt(p):
        p.add_argument("--no-ledger", action="store_true",
                       help="do not record this invocation in the run "
                            "ledger (~/.tangled/ledger.db, or "
                            "$TANGLED_LEDGER)")

    p = sub.add_parser("asm", help="assemble Tangled/Qat source to hex")
    p.add_argument("source", help="assembly file ('-' for stdin)")
    p.add_argument("-o", "--output", help="write hex words here")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("dis", help="disassemble a hex word image")
    p.add_argument("image", help="hex file ('-' for stdin)")
    p.set_defaults(func=cmd_dis)

    p = sub.add_parser("run", help="assemble and execute a program")
    p.add_argument("source", help="assembly file ('-' for stdin)")
    p.add_argument("--sim", choices=("functional", "multicycle", "pipelined"),
                   default="pipelined")
    p.add_argument("--ways", type=int, default=8)
    add_qat_backend(p)
    p.add_argument("--stages", type=int, choices=(4, 5), default=4)
    p.add_argument("--no-forwarding", action="store_true")
    p.add_argument("--limit", type=int, default=1_000_000,
                   help="step/cycle budget")
    p.add_argument("--stats", action="store_true",
                   help="print a telemetry report (CPI, stalls, Qat ops, ...)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace_event JSON file "
                        "(chrome://tracing / Perfetto)")
    add_ledger_opt(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("factor", help="PBP prime factoring")
    p.add_argument("n", type=int)
    p.add_argument("--bits", type=int, help="bits per factor (default: fitted)")
    p.add_argument("--pattern", action="store_true",
                   help="force the RE-compressed substrate")
    p.add_argument("--chunk-ways", type=int, default=None)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("verilog", help="emit the Figure 7/8 Verilog modules")
    p.add_argument("module", choices=("qathad", "qatnext", "qatalu", "all"))
    p.add_argument("--ways", type=int, default=16)
    p.set_defaults(func=cmd_verilog)

    p = sub.add_parser("fig10", help="run the paper's Figure 10 program")
    p.add_argument("--sim", choices=("functional", "multicycle", "pipelined"),
                   default="pipelined")
    p.add_argument("--ways", type=int, default=8)
    add_qat_backend(p)
    p.add_argument("--stats", action="store_true",
                   help="print a telemetry report (CPI, stalls, Qat ops, ...)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace_event JSON file")
    add_ledger_opt(p)
    p.set_defaults(func=cmd_fig10)

    p = sub.add_parser(
        "faults",
        help="run a seeded soft-error campaign and classify the outcomes",
    )
    p.add_argument("--seed", type=int, default=7, help="master campaign seed")
    p.add_argument("--runs", type=int, default=20, help="faulted runs")
    p.add_argument("--program", choices=("fig10", "factor"), default="fig10")
    p.add_argument("--sim", choices=("functional", "multicycle", "pipelined"),
                   default="functional")
    p.add_argument("--ways", type=int, default=8)
    add_qat_backend(p)
    p.add_argument("--faults-per-run", type=int, default=1,
                   help="bit flips injected per run")
    p.add_argument("--targets", default="gpr,mem,qreg",
                   help="comma-separated fault targets "
                        "(gpr,qreg,mem,pc,latch)")
    p.add_argument("--summary-only", action="store_true",
                   help="omit the per-run detail from the report")
    p.add_argument("--jobs", type=int, default=1, metavar="N",
                   help="shard the runs across N supervised worker "
                        "processes (report stays byte-identical to "
                        "serial)")
    p.add_argument("--batch", type=int, default=1, metavar="N",
                   help="pack runs into N-lane batches run in one "
                        "process, on any --sim engine (every run is a "
                        "lane; the default 1 runs 1-lane batches; RE "
                        "lanes share a chunk store and gate memo; report "
                        "stays byte-identical to serial)")
    p.add_argument("--shard-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="kill and retry a run whose worker runs longer "
                        "than this (only with --jobs > 1)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retries per run (with backoff) before it is "
                        "quarantined as toxic (default: 2)")
    p.add_argument("--worker-mem-mib", type=int, default=None,
                   metavar="MIB",
                   help="address-space ceiling per worker process "
                        "(RLIMIT_AS; exceeding it fails the shard, not "
                        "the campaign)")
    p.add_argument("--resume", metavar="RUN_ID",
                   help="finish the journaled run RUN_ID (id or unique "
                        "prefix): re-execute only its missing and toxic "
                        "shards, byte-identical to a one-shot run")
    p.add_argument("--stats", action="store_true",
                   help="print a telemetry report (fault counters, traps, ...)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace_event JSON file")
    add_ledger_opt(p)
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "profile",
        help="attribute every simulated cycle to a PC (perf annotate style)",
    )
    p.add_argument("source",
                   help="assembly file ('-' for stdin), or 'fig10' for the "
                        "paper's listing")
    p.add_argument("--sim", choices=("pipelined", "multicycle"),
                   default="pipelined")
    p.add_argument("--ways", type=int, default=8)
    add_qat_backend(p)
    p.add_argument("--stages", type=int, choices=(4, 5), default=4)
    p.add_argument("--no-forwarding", action="store_true")
    p.add_argument("--limit", type=int, default=10_000_000,
                   help="cycle/step budget")
    p.add_argument("--json", metavar="PATH",
                   help="also write the profile as JSON ('-' for stdout "
                        "instead of the listing)")
    p.add_argument("--trace-out", metavar="PATH",
                   help="write a Chrome trace_event flamegraph "
                        "(chrome://tracing / Perfetto)")
    add_ledger_opt(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "blackbox",
        help="render a run's flight-recorder blackbox as a disassembled "
             "post-mortem listing",
    )
    p.add_argument("target",
                   help="run id (or unique prefix / label) whose linked "
                        "blackbox artifacts to render, or a path to a "
                        "blackbox-*.json spill file")
    p.add_argument("--last", type=int, default=None, metavar="K",
                   help="only the final K events (default: all spilled)")
    p.add_argument("--ledger", metavar="PATH",
                   help="ledger database (default: $TANGLED_LEDGER or "
                        "~/.tangled/ledger.db)")
    p.add_argument("--export", choices=("json",),
                   help="byte-stable JSON instead of the text listing")
    p.set_defaults(func=cmd_blackbox)

    p = sub.add_parser("report",
                       help="trajectory and comparison views over the "
                            "run ledger")
    p.add_argument("--ledger", metavar="PATH",
                   help="ledger database (default: $TANGLED_LEDGER or "
                        "~/.tangled/ledger.db)")
    p.add_argument("--label", metavar="LABEL",
                   help="render this label's trajectory across its runs")
    p.add_argument("--last", type=int, default=10, metavar="N",
                   help="how many recent runs to include (default: 10)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="side-by-side comparison: run ids (or unique "
                        "prefixes), or labels (their latest run)")
    p.add_argument("--counter-threshold", type=float, default=0.05,
                   help="relative counter change treated as neutral "
                        "(default: 0.05)")
    p.add_argument("--time-threshold", type=float, default=0.25,
                   help="relative timing change treated as neutral "
                        "(default: 0.25)")
    p.add_argument("--export", choices=("json",),
                   help="byte-stable JSON instead of the text view")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("tangled: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except (ReproError, OSError, ValueError) as exc:
        print(f"tangled: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
