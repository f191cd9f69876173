"""Statistics-aware benchmark runner behind ``tangled bench``.

The experiment harness (``benchmarks/harness.py``) prints tables; this
module turns a curated subset of those workloads into a *regression
instrument*: every bench runs ``warmup + rounds`` times, each round
under a fresh telemetry capture, and the report records

- **counters** -- every scalar metric the round produced (CPI, cycles,
  stalls, Qat op/bit volume, chunkstore hits).  These are deterministic
  functions of the workload, so two runs of the same tree produce
  byte-identical counter sections -- the property CI leans on; and
- **timing** -- median / IQR / min / mean wall-clock seconds across
  rounds.  Timing varies run to run and is therefore *recorded but not
  gated* unless explicitly requested.

:func:`write_report` serializes with sorted keys and a fixed layout, so
``BENCH_<label>.json`` files diff cleanly and append naturally to a
trajectory (compare any two with ``tangled bench --compare``).
:func:`compare_reports` classifies each shared metric as improved /
regressed / neutral against configurable relative thresholds, knowing
which metrics are better high (hit counts, bytes saved) and which are
better low (everything else).
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError

#: Report format version.
SCHEMA = 1

#: Metrics where *larger* is the improvement; every other metric is
#: treated as a cost (cycles, stalls, seconds, bit volume).
HIGHER_IS_BETTER = (
    "chunkstore.binop.hit",
    "chunkstore.bytes_saved",
    "pipeline.retired",
    "faults.masked",
)


@dataclass(frozen=True)
class BenchSpec:
    """One named workload: a zero-argument callable run per round."""

    name: str
    fn: Callable[[], object]
    description: str = ""
    #: False runs the round with telemetry *uninstalled* (so simulators
    #: take the fast path) and records an empty counter section.
    capture: bool = True
    #: optional untimed per-round preparation; its return value is
    #: passed to ``fn`` so e.g. assembly stays out of the timed region
    setup: Callable[[], object] | None = None
    #: optional ``fn(result) -> steps`` so the report can derive a
    #: steps/sec rate from the timed region
    rate_steps: Callable[[object], int] | None = None


# ---------------------------------------------------------------------------
# The suite
# ---------------------------------------------------------------------------

def _fig10(simulator: str, ways: int = 8, qat_backend: str = "dense",
           **config_kwargs):
    def run():
        from repro.apps import fig10_program, run_factor_program
        from repro.cpu import PipelineConfig

        config = PipelineConfig(**config_kwargs) if config_kwargs else None
        sim, regs = run_factor_program(
            fig10_program(), ways=ways, simulator=simulator, config=config,
            qat_backend=qat_backend,
        )
        if regs != (5, 3):
            raise ReproError(f"fig10 produced {regs}, expected (5, 3)")
        return sim

    return run


def _fig10_fast_setup():
    from repro.apps import fig10_program

    return fig10_program()


def _fig10_fast(simulator: str, qat_backend: str = "dense"):
    """Timed region = simulator run only: assembly happens in setup and
    telemetry stays uninstalled, so this measures the fast-path loop."""
    def run(program):
        from repro.apps import run_factor_program

        sim, regs = run_factor_program(
            program, ways=8, simulator=simulator, qat_backend=qat_backend,
        )
        if regs != (5, 3):
            raise ReproError(f"fig10 produced {regs}, expected (5, 3)")
        return sim

    return run


def _fig10_instret(sim) -> int:
    return sim.machine.instret


def _fig10_batch(lanes: int, qat_backend: str = "dense"):
    """Timed region = one batched run of ``lanes`` fig10 machines.

    The rate metric is aggregate machines x steps per second: the batch
    simulator retires one instruction on every active lane per step, so
    the summed per-lane ``instret`` is the work actually done."""
    def run(program):
        from repro.cpu.batch import BatchFunctionalSimulator

        sim = BatchFunctionalSimulator(lanes, ways=8,
                                       qat_backend=qat_backend)
        sim.load(program)
        sim.run(max_steps=100_000)
        machines = sim.machines
        if not bool(machines.halted.all()):
            raise ReproError("batched fig10 left lanes running")
        if not (bool((machines.regs[:, 0] == 5).all())
                and bool((machines.regs[:, 1] == 3).all())):
            raise ReproError("batched fig10 produced wrong factors")
        return sim

    return run


def _batch_instret(sim) -> int:
    return int(sim.machines.instret.sum())


def _factor_n221():
    from repro.apps import factor_pairs

    pairs = factor_pairs(221, 5, 5)
    if (13, 17) not in pairs:
        raise ReproError(f"factor(221) produced {pairs}")
    return pairs


def _chunkstore_xor(ways: int = 18):
    from repro.pattern import ChunkStore, PatternVector

    store = ChunkStore(16)
    h = PatternVector.hadamard(ways, ways - 1, store)
    g = PatternVector.hadamard(ways, 0, store)
    first = h ^ g
    second = h ^ g  # memoized replay: pure chunkstore hits
    (first & second)
    return first.num_runs


def _compiled_factor15():
    from repro.apps import compile_factor_program, run_factor_program
    from repro.gates import EmitOptions

    compiled = compile_factor_program(15, 4, 4, EmitOptions(allocator="recycle"))
    sim, regs = run_factor_program(compiled.program, ways=8)
    if regs != (5, 3):
        raise ReproError(f"compiled factor-15 produced {regs}")
    return sim


def _qat_kernels(ways: int = 14):
    import numpy as np

    from repro.aob import AoB

    rng = np.random.default_rng(42)
    a = AoB.random(ways, rng)
    b = AoB.random(ways, rng)
    (a & b) ^ (a | ~b)
    a.next(123)
    return a.meas(123)


def default_specs(qat_backend: str = "dense") -> list[BenchSpec]:
    """The standard ``tangled bench`` suite, stable order.

    ``qat_backend`` retargets the fig10 workloads onto that Qat
    substrate; the ``fig10.re*`` entries always run the RE-compressed
    backend -- ``fig10.re_ways24`` is the wide-ways workload that the
    dense backend cannot even allocate under the CI memory ceiling.
    """
    return [
        BenchSpec("fig10.functional", _fig10("functional",
                                             qat_backend=qat_backend),
                  "Figure 10 on the functional simulator"),
        BenchSpec("fig10.multicycle", _fig10("multicycle",
                                             qat_backend=qat_backend),
                  "Figure 10 on the multi-cycle timing model"),
        BenchSpec("fig10.pipelined", _fig10("pipelined",
                                            qat_backend=qat_backend),
                  "Figure 10 on the 4-stage forwarding pipeline (key CPI)"),
        BenchSpec("fig10.pipelined_nofwd",
                  _fig10("pipelined", qat_backend=qat_backend,
                         stages=4, forwarding=False),
                  "Figure 10 without forwarding (stall-heavy variant)"),
        BenchSpec("fig10.re", _fig10("functional", qat_backend="re"),
                  "Figure 10 on the RE-compressed Qat backend (parity)"),
        BenchSpec("fig10.re_ways24",
                  _fig10("functional", ways=24, qat_backend="re"),
                  "Figure 10 at 24-way entanglement (RE only: a dense "
                  "register file would need 512 MiB)"),
        BenchSpec("fig10.functional_fast",
                  _fig10_fast("functional", qat_backend=qat_backend),
                  "Figure 10 run-loop only, fast path, capture off "
                  "(steps/sec)",
                  capture=False, setup=_fig10_fast_setup,
                  rate_steps=_fig10_instret),
        BenchSpec("fig10.multicycle_fast",
                  _fig10_fast("multicycle", qat_backend=qat_backend),
                  "Figure 10 multi-cycle run-loop only, fast path "
                  "(steps/sec)",
                  capture=False, setup=_fig10_fast_setup,
                  rate_steps=_fig10_instret),
        BenchSpec("fig10.pipelined_fast",
                  _fig10_fast("pipelined", qat_backend=qat_backend),
                  "Figure 10 pipelined run-loop only, predecoded fetch "
                  "(steps/sec)",
                  capture=False, setup=_fig10_fast_setup,
                  rate_steps=_fig10_instret),
        BenchSpec("fig10.batch64",
                  _fig10_batch(64, qat_backend=qat_backend),
                  "Figure 10 on 64 NumPy-batched machines "
                  "(aggregate machines x steps /sec)",
                  capture=False, setup=_fig10_fast_setup,
                  rate_steps=_batch_instret),
        BenchSpec("fig10.batch512",
                  _fig10_batch(512, qat_backend=qat_backend),
                  "Figure 10 on 512 NumPy-batched machines "
                  "(aggregate machines x steps /sec)",
                  capture=False, setup=_fig10_fast_setup,
                  rate_steps=_batch_instret),
        BenchSpec("factor.n221", _factor_n221,
                  "word-level factoring of 221 (AoB kernel volume)"),
        BenchSpec("chunkstore.s12", _chunkstore_xor,
                  "RE-compressed XOR at 18-way (chunkstore hit rate)"),
        BenchSpec("compiler.factor15", _compiled_factor15,
                  "compile + run the recycling-allocator factor-15 program"),
        BenchSpec("qat.kernels", _qat_kernels,
                  "raw AoB SIMD kernels at 14-way"),
    ]


def spec_by_name(name: str, qat_backend: str = "dense") -> BenchSpec:
    specs = default_specs(qat_backend)
    for spec in specs:
        if spec.name == name:
            return spec
    raise ReproError(f"unknown bench {name!r} "
                     f"(try: {', '.join(s.name for s in specs)})")


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------

def run_spec_once(spec: BenchSpec) -> dict:
    """One round of ``spec`` under a fresh capture.

    Returns ``{"seconds": float, "counters": {name: value}}`` where the
    counters are every scalar (non-histogram) metric the round touched.
    Histograms are excluded: their contents are wall-clock durations and
    would break counter determinism.

    ``spec.capture=False`` rounds run with telemetry *uninstalled*
    instead (the simulators select their fast path) and record an empty
    counter section; ``spec.setup`` runs before the clock starts and its
    return value is passed to ``spec.fn``.  When ``spec.rate_steps`` is
    set the result gains a ``"steps"`` entry derived from ``fn``'s
    return value.
    """
    from repro import obs
    from repro.obs.metrics import Histogram
    from repro.pattern import reset_default_stores

    # Fresh chunk stores every round: interning/memo state carried over
    # from a previous round (or unrelated earlier work in this process)
    # would skew chunkstore hit counters and break round-to-round
    # counter determinism.
    reset_default_stores()
    previous = obs.current()
    if spec.capture:
        telemetry = obs.enable(tracing=False)
    else:
        telemetry = None
        obs.install(None)
    try:
        prepared = spec.setup() if spec.setup is not None else None
        t0 = time.perf_counter()
        result = spec.fn(prepared) if spec.setup is not None else spec.fn()
        seconds = time.perf_counter() - t0
    finally:
        obs.install(previous)
    counters = {} if telemetry is None else {
        name: metric.value
        for name, metric in telemetry.metrics.items()
        if not isinstance(metric, Histogram)
    }
    out = {"seconds": seconds, "counters": counters}
    if spec.rate_steps is not None:
        out["steps"] = int(spec.rate_steps(result))
    return out


def _timing_stats(samples: list[float]) -> dict:
    """median / IQR / min / mean over the round timings."""
    ordered = sorted(samples)
    if len(ordered) >= 2:
        quartiles = statistics.quantiles(ordered, n=4, method="inclusive")
        iqr = quartiles[2] - quartiles[0]
    else:
        iqr = 0.0
    return {
        "iqr": iqr,
        "max": ordered[-1],
        "mean": statistics.fmean(ordered),
        "median": statistics.median(ordered),
        "min": ordered[0],
        "rounds": len(ordered),
    }


#: Specs already warmed up in *this worker process* (each pool worker
#: pays its own warmup rounds before its first timed round of a spec).
_WARMED: set[tuple[str, str]] = set()


def _bench_worker_init() -> None:
    """Detach inherited telemetry and reset stores in a pool worker."""
    from repro.obs import runtime as _rt
    from repro.pattern import reset_default_stores

    _rt.install(None)
    reset_default_stores()
    _WARMED.clear()


def _bench_task(task: tuple, attempt: int = 0) -> tuple[int, str, int, dict, int]:
    """One timed round of a named suite spec, in a worker process.

    ``attempt`` is the supervisor's retry ordinal for this shard (0 on
    the first try); it exists so the chaos hook can model faults that
    heal on retry.  The trailing worker id feeds the parent's progress
    tracker and never enters the report."""
    from repro.obs.progress import worker_ident
    from repro.runtime.supervisor import chaos_hook

    shard, name, qat_backend, warmup, round_idx = task
    chaos_hook(shard, attempt)
    spec = spec_by_name(name, qat_backend)
    key = (name, qat_backend)
    if key not in _WARMED:
        for _ in range(warmup):
            run_spec_once(spec)
        _WARMED.add(key)
    return shard, name, round_idx, run_spec_once(spec), worker_ident()


def _merge_rounds(name: str, results: list[dict]) -> dict:
    """Fold per-round results into one bench entry (round order)."""
    timings: list[float] = []
    counters: dict | None = None
    steps: int | None = None
    for result in results:
        timings.append(result["seconds"])
        if counters is not None and counters != result["counters"]:
            raise ReproError(
                f"bench {name!r} is nondeterministic: counters "
                f"changed between rounds"
            )
        counters = result["counters"]
        if "steps" in result:
            if steps is not None and steps != result["steps"]:
                raise ReproError(
                    f"bench {name!r} is nondeterministic: step count "
                    f"changed between rounds"
                )
            steps = result["steps"]
    entry = {
        "counters": dict(sorted((counters or {}).items())),
        "timing": _timing_stats(timings),
    }
    if steps is not None:
        median = entry["timing"]["median"]
        entry["rate"] = {
            "steps": steps,
            "steps_per_second": round(steps / median) if median > 0 else 0,
        }
    return entry


class BenchInterrupted(ReproError):
    """A bench fan-out was interrupted (Ctrl-C) mid-flight.

    Carries the partial ``report`` (fully-merged benches only, marked
    with ``"interrupted": true``) so the CLI can still flush it and
    record a ledger row with the ``interrupted`` exit status.  Completed
    rounds were journaled, so ``tangled bench --resume <run-id>``
    finishes the suite.
    """

    def __init__(self, report: dict, done: int, total: int):
        self.report = report
        self.done = done
        self.total = total
        super().__init__(f"bench suite interrupted after {done}/{total} "
                         f"rounds")


def run_suite(
    specs: list[BenchSpec] | None = None,
    label: str = "local",
    rounds: int = 5,
    warmup: int = 1,
    progress: Callable[[str], None] | None = None,
    jobs: int = 1,
    qat_backend: str = "dense",
    tracker=None,
    supervise=None,
    journal=None,
) -> dict:
    """Run every spec ``warmup + rounds`` times; return the report dict.

    Counters are taken from the final round (every round must agree --
    a divergence means the workload is nondeterministic and is reported
    as an error rather than silently averaged away).

    ``jobs > 1`` shards the timed rounds across a *supervised* worker
    pool (:class:`repro.runtime.supervisor.Supervisor`): crashed or
    timed-out workers are replaced and their round retried with backoff;
    a round that exhausts its retry budget quarantines the whole bench
    as a ``{"toxic": true, ...}`` entry instead of aborting the suite.
    Each round already runs under fresh stores and its own capture, so
    the merged counter (and steps) sections are byte-identical to the
    serial suite; only the wall-clock timing statistics differ.
    Parallel runs are restricted to suite specs resolvable by
    :func:`spec_by_name` with the given ``qat_backend`` (bench closures
    do not pickle), and every worker pays its own warmup before its
    first round of a spec.  ``supervise`` (a
    :class:`~repro.runtime.supervisor.SupervisorConfig`) tunes timeouts,
    retry budget, and the per-worker memory ceiling.

    ``journal`` (a :class:`repro.obs.ledger.ShardJournal`) records every
    completed round as it lands; a journal opened with ``resume=True``
    replays completed rounds from the ledger and re-executes only the
    missing and toxic ones.  A ``KeyboardInterrupt`` during the fan-out
    terminates the workers and raises :class:`BenchInterrupted` carrying
    the partial report.

    ``tracker`` (a :class:`repro.obs.progress.ProgressTracker`) receives
    one heartbeat per completed round, off the report path.
    """
    if rounds <= 0:
        raise ReproError(f"rounds must be positive, got {rounds}")
    if warmup < 0:
        raise ReproError(f"warmup must be non-negative, got {warmup}")
    if jobs <= 0:
        raise ReproError(f"jobs must be positive, got {jobs}")
    from repro.obs import runtime as _obs
    from repro.obs.ledger import SHARD_DONE, SHARD_TOXIC

    spec_list = specs if specs is not None else default_specs(qat_backend)
    if jobs > 1:
        for spec in spec_list:
            spec_by_name(spec.name, qat_backend)  # reject unknown customs
    # Shard id = flat round index in suite order, stable across resumes.
    tasks = [
        (pos * rounds + round_idx, spec.name, qat_backend, warmup, round_idx)
        for pos, spec in enumerate(spec_list)
        for round_idx in range(rounds)
    ]
    fingerprint = {
        "label": label, "benches": [s.name for s in spec_list],
        "rounds": rounds, "warmup": warmup, "qat_backend": qat_backend,
    }
    done: dict[int, dict] = {}
    if journal is not None:
        done = journal.begin("bench", fingerprint)
    per_spec: dict[str, list] = {s.name: [None] * rounds for s in spec_list}
    toxic: dict[str, dict] = {}
    for payload in done.values():
        per_spec[payload["name"]][payload["round"]] = payload["result"]
    pending = [task for task in tasks if task[0] not in done]
    if tracker is not None and done:
        # Replayed rounds never heartbeat; track only what will run.
        tracker.total = len(pending)

    def _settle(shard: int, name: str, round_idx: int, result: dict,
                attempts: int, worker: int) -> None:
        per_spec[name][round_idx] = result
        if journal is not None:
            journal.record(shard, SHARD_DONE, attempts,
                           {"shard": shard, "name": name,
                            "round": round_idx, "result": result})
        if tracker is not None:
            tracker.note(worker, result["seconds"],
                         steps=result.get("steps", 0))

    def _settle_toxic(shard: int, name: str, round_idx: int,
                      outcome) -> None:
        entry = {"toxic": True, "error": outcome.quarantine_message(),
                 "failures": outcome.failure_kinds}
        toxic[name] = entry
        if journal is not None:
            journal.record(shard, SHARD_TOXIC, outcome.attempts,
                           {"shard": shard, "name": name,
                            "round": round_idx, **entry})
        if tracker is not None:
            tracker.note(0, 0.0)

    interrupted = False
    if pending and jobs > 1:
        from repro.runtime.supervisor import (
            Supervisor,
            SupervisorConfig,
            SupervisorInterrupted,
        )

        config = supervise if supervise is not None \
            else SupervisorConfig(jobs=jobs)
        if progress is not None:
            progress(f"bench fan-out: {len(spec_list)} benches x {rounds} "
                     f"rounds across {config.jobs} workers")
        by_shard = {task[0]: task for task in pending}

        def _on_result(outcome) -> None:
            if outcome.ok:
                shard, name, round_idx, result, worker = outcome.result
                _settle(shard, name, round_idx, result,
                        outcome.attempts, worker)
            else:
                task = by_shard[outcome.shard]
                _settle_toxic(outcome.shard, task[1], task[4], outcome)

        supervisor = Supervisor(
            _bench_task, config, initializer=_bench_worker_init,
            on_event=(tracker.note_supervisor
                      if tracker is not None else None),
        )
        try:
            supervisor.run(by_shard, on_result=_on_result)
        except SupervisorInterrupted:
            interrupted = True
        if _obs.active:
            _obs.current().supervisor_run(supervisor.stats.as_dict())
    elif pending:
        pending_shards = {task[0] for task in pending}
        for pos, spec in enumerate(spec_list):
            todo = [round_idx for round_idx in range(rounds)
                    if pos * rounds + round_idx in pending_shards]
            if not todo:
                continue
            if progress is not None:
                progress(
                    f"bench {spec.name}: {warmup} warmup + {len(todo)} rounds"
                )
            for _ in range(warmup):
                run_spec_once(spec)
            for round_idx in todo:
                result = run_spec_once(spec)
                _settle(pos * rounds + round_idx, spec.name, round_idx,
                        result, 1, 0)
    if tracker is not None:
        tracker.finish()

    benches: dict[str, dict] = {}
    merged = 0
    for spec in spec_list:
        if spec.name in toxic:
            benches[spec.name] = toxic[spec.name]
            continue
        round_results = per_spec[spec.name]
        if any(result is None for result in round_results):
            # Only reachable on an interrupted fan-out: the partial
            # report carries fully-merged benches, nothing half-done.
            continue
        benches[spec.name] = _merge_rounds(spec.name, round_results)
        merged += 1
    report = {
        "schema": SCHEMA,
        "label": label,
        "rounds": rounds,
        "warmup": warmup,
        "benches": benches,
    }
    if interrupted:
        report["interrupted"] = True
        raise BenchInterrupted(report, done=merged, total=len(spec_list))
    return report


def render_json(report: dict) -> str:
    """Canonical serialization: identical trees yield identical bytes
    outside the ``timing`` sub-objects."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_json(report))


def load_report(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    if report.get("schema") != SCHEMA:
        raise ReproError(
            f"{path}: unsupported bench schema {report.get('schema')!r}"
        )
    return report


# ---------------------------------------------------------------------------
# Comparison / regression gate
# ---------------------------------------------------------------------------

#: One classified metric delta.
IMPROVED, REGRESSED, NEUTRAL = "improved", "regressed", "neutral"


def _classify(metric: str, base: float, current: float,
              threshold: float) -> str:
    if base == current:
        return NEUTRAL
    if base == 0:
        delta = 1.0 if current > 0 else -1.0
    else:
        delta = (current - base) / abs(base)
    if abs(delta) <= threshold:
        return NEUTRAL
    worse = delta > 0
    if metric in HIGHER_IS_BETTER:
        worse = not worse
    return REGRESSED if worse else IMPROVED


def compare_reports(current: dict, baseline: dict,
                    counter_threshold: float = 0.05,
                    time_threshold: float = 0.25) -> list[dict]:
    """Classify every metric both reports share.

    Returns one row per (bench, metric): ``{"bench", "metric", "kind",
    "baseline", "current", "verdict"}``, counters first, stable order.
    Benches present on only one side are reported with kind ``missing``
    so a silently dropped workload cannot masquerade as progress.
    """
    rows: list[dict] = []
    cur_benches = current.get("benches", {})
    base_benches = baseline.get("benches", {})
    for name in sorted(set(cur_benches) | set(base_benches)):
        cur = cur_benches.get(name)
        base = base_benches.get(name)
        if cur is None or base is None:
            rows.append({
                "bench": name, "metric": "-", "kind": "missing",
                "baseline": None if base is None else "present",
                "current": None if cur is None else "present",
                "verdict": REGRESSED if cur is None else NEUTRAL,
            })
            continue
        if cur.get("toxic") or base.get("toxic"):
            # A quarantined bench has no counters or timing to compare.
            # Toxic *now* fails the gate like a missing bench would; a
            # toxic baseline only makes the current (healthy) run
            # incomparable, not wrong.
            rows.append({
                "bench": name, "metric": "-", "kind": "toxic",
                "baseline": "toxic" if base.get("toxic") else "present",
                "current": "toxic" if cur.get("toxic") else "present",
                "verdict": REGRESSED if cur.get("toxic") else NEUTRAL,
            })
            continue
        for metric in sorted(set(cur["counters"]) & set(base["counters"])):
            b, c = base["counters"][metric], cur["counters"][metric]
            rows.append({
                "bench": name, "metric": metric, "kind": "counter",
                "baseline": b, "current": c,
                "verdict": _classify(metric, b, c, counter_threshold),
            })
        b, c = base["timing"]["median"], cur["timing"]["median"]
        rows.append({
            "bench": name, "metric": "median_seconds", "kind": "timing",
            "baseline": b, "current": c,
            "verdict": _classify("median_seconds", b, c, time_threshold),
        })
    return rows


def regressions(rows: list[dict], include_timing: bool = False) -> list[dict]:
    """The rows that should fail a gate: regressed counters (and missing
    benches); regressed timings only when ``include_timing``."""
    bad = []
    for row in rows:
        if row["verdict"] != REGRESSED:
            continue
        if row["kind"] == "timing" and not include_timing:
            continue
        bad.append(row)
    return bad


def render_regressions(rows: list[dict]) -> str:
    """Per-counter failure detail: old/new values and percent delta.

    One line per regressed row (what the gate prints to stderr before
    failing), so a CI log names every offending counter instead of just
    the classification totals."""
    lines = []
    for row in rows:
        base, cur = row["baseline"], row["current"]
        if row["kind"] == "missing":
            lines.append(f"  {row['bench']}: bench missing from current run")
            continue
        if row["kind"] == "toxic":
            lines.append(f"  {row['bench']}: bench quarantined as toxic")
            continue
        if isinstance(base, (int, float)) and base != 0:
            delta = f" ({(cur - base) / abs(base):+.1%})"
        else:
            delta = ""
        lines.append(
            f"  {row['bench']}: {row['metric']} {base:g} -> {cur:g}{delta}"
        )
    return "\n".join(lines)


def render_compare(rows: list[dict], verbose: bool = False) -> str:
    """Human-readable comparison table (regressions always shown)."""
    shown = rows if verbose else [r for r in rows if r["verdict"] != NEUTRAL]
    lines = ["== bench comparison =="]
    if not shown:
        lines.append("  all metrics neutral")
    for row in shown:
        base, cur = row["baseline"], row["current"]
        if isinstance(base, float) or isinstance(cur, float):
            base = f"{base:.6g}" if isinstance(base, (int, float)) else base
            cur = f"{cur:.6g}" if isinstance(cur, (int, float)) else cur
        lines.append(
            f"  [{row['verdict']:<9}] {row['bench']}: {row['metric']} "
            f"{base} -> {cur}"
        )
    counts = {IMPROVED: 0, REGRESSED: 0, NEUTRAL: 0}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    lines.append(
        f"  {counts[IMPROVED]} improved, {counts[REGRESSED]} regressed, "
        f"{counts[NEUTRAL]} neutral"
    )
    return "\n".join(lines)
