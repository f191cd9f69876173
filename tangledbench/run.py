"""Benchmark for the Tangled/Qat simulator stack.

Usage, from the repository root::

    python3 tangledbench/run.py --workload loop_pipelined --seed 1 \\
        --seconds 20 --trace 0

One client in one process runs a closed loop: the next op starts when
the previous one returns.  Every op is one ``tangled`` command run
in-process through ``repro.cli.main(argv)`` against a fresh run ledger
and a cold RE substrate, and every op's output is checked.  With
``--trace 0`` the last stdout line carries the end-to-end metrics
(``throughput``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` it
carries the per-layer metrics and the spans go to
``.bench_out/trace-<workload>-seed<seed>.json``.  README.md next to
this file describes the workloads and metrics.
"""

import time

# Set-up time runs from here: before the program or NumPy is imported.
_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
#: Fresh-interpreter set-ups per run besides the run's own; ``setup_s``
#: is the median of all of them, each scaled by the host speed measured
#: with this many calibration loops right after it.
SETUP_PROBES = 2
SETUP_CALIBRATIONS = 5
#: Program knobs that would change what an op measures; the benchmark
#: runs the defaults a user has.
_PROGRAM_ENV = ("TANGLED_CHUNK_CACHE", "TANGLED_FLIGHT", "REPRO_FASTPATH",
                "TANGLED_CHAOS", "TANGLED_BLACKBOX_DIR",
                "TANGLED_BLACKBOX_SPOOL", "TANGLED_BLACKBOX_RUN")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_program() -> float:
    """Import ``repro.cli`` from this checkout's ``src``; seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    try:
        import repro.cli
    except ImportError as exc:
        raise BenchError(f"cannot import the program from {src}: {exc}")
    seconds = time.perf_counter() - start
    if not Path(repro.cli.__file__).resolve().is_relative_to(src):
        raise BenchError(f"repro imported from {repro.cli.__file__}, "
                         f"not from {src}")
    return seconds


def _attempt(op: workloads.Op) -> tuple[float, str | None, str]:
    """Run and check one op: (seconds, error or None, stdout)."""
    start = time.perf_counter()
    status, out, err = workloads.run_cli(op.argv)
    seconds = time.perf_counter() - start
    if status != 0:
        return seconds, f"exit {status}: {err.strip()[-500:]}", out
    return seconds, op.check(out), out


class Tally:
    """Ops attempted and failed; the first few errors go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, op: workloads.Op, error: str | None) -> bool:
        self.attempted += 1
        if error is None:
            return True
        self.failed += 1
        if self.failed <= 5:
            print(f"failed op {' '.join(op.argv)}: {error}", file=sys.stderr)
        return False


def _warm_up(workload, tally: Tally) -> int:
    """One checked, untimed op per slot; returns the next op index."""
    for index in range(workload.slots):
        op = workload.op(index)
        tally.add(op, _attempt(op)[1])
    return workload.slots


def _slot_rate(samples: dict[int, list[float]], work: dict[int, int]) -> float:
    """Work per second from each slot's median op time.

    Medians resist the machine's bursts; summing over slots weighs every
    kernel of a loop workload once per round.
    """
    return (sum(work[slot] for slot in samples)
            / sum(statistics.median(times) for times in samples.values()))


def _scaled_setup(setup_s: float) -> float:
    """``setup_s`` scaled by the host speed measured right after it."""
    loops = [calibrate.loop_seconds() for _ in range(SETUP_CALIBRATIONS)]
    return setup_s / calibrate.slowdown(loops)


def _setup_samples(args, own_setup_s: float) -> list[float]:
    samples = [_scaled_setup(own_setup_s)]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if probe.returncode != 0:
            raise BenchError(f"set-up probe failed: {probe.stderr[-500:]}")
        samples.append(json.loads(probe.stdout.splitlines()[-1])["setup_s"])
    return samples


def timed_run(args, workload, setup_s: float) -> dict:
    tally = Tally()
    setup = _setup_samples(args, setup_s)
    index = _warm_up(workload, tally)
    samples: dict[int, list[float]] = defaultdict(list)
    work: dict[int, int] = {}
    calibration: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:
        calibration.append(calibrate.loop_seconds())
        op = workload.op(index)
        index += 1
        seconds, error, _ = _attempt(op)
        if tally.add(op, error):
            samples[op.slot].append(seconds)
            work[op.slot] = op.work
    if not samples:
        raise BenchError("no op succeeded")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Op times are scaled to the reference host speed (see calibrate.py).
    slowdown = calibrate.slowdown(calibration)
    for slot, times in sorted(samples.items()):
        print(f"slot {slot}: {len(times)} ops of {work[slot]} "
              f"{workload.unit}, median {statistics.median(times):.4f} s, "
              f"min {min(times):.4f} s, max {max(times):.4f} s")
    print(f"calibration loop: median {statistics.median(calibration):.5f} s"
          f" over {len(calibration)} ops (reference "
          f"{calibrate.REFERENCE_S} s)")
    print(f"unscaled throughput {_slot_rate(samples, work):.6g}/s; "
          f"scaled set-up samples {', '.join(f'{s:.4f}' for s in setup)} s")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            "throughput": {"value": _slot_rate(samples, work) * slowdown,
                           "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        },
    }


def traced_run(args, workload, import_s: float) -> dict:
    """Per-layer numbers: each input runs as a plain op, an op with the
    flight recorder off, and a traced op, in that order."""
    from repro.obs import flight
    from tracing import Tracer, self_time_table

    tracer = Tracer()
    tally = Tally()
    index = _warm_up(workload, tally)
    first_round = index + workload.slots
    first = Counter()  # simulated counts of the first round: exact repeats
    totals = Counter()
    overhead: list[float] = []
    flight_ratio: list[float] = []
    trace_ratio: list[float] = []
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or index < first_round:
        op = workload.op(index)
        plain, error, _ = _attempt(op)
        tally.add(op, error)
        recorder = flight.RECORDER
        flight.RECORDER = flight.FlightRecorder(enabled=False)
        try:
            quiet, error, _ = _attempt(op)
        finally:
            flight.RECORDER = recorder
        tally.add(op, error)
        (status, out, err), wall, core, counts = tracer.traced_op(
            index, lambda: workloads.run_cli(op.argv))
        tally.add(op, f"exit {status}: {err.strip()[-500:]}" if status
                  else op.check(out))
        totals += counts
        if index < first_round:
            first += counts
        overhead.append(wall - core)
        flight_ratio.append(plain / quiet)
        trace_ratio.append(wall / plain)
        index += 1
    traced = len(overhead)
    rounds = workload.slots

    def per_op(name: str) -> float:
        return tracer.self_s[name] / traced

    def count(key: str) -> float:
        return first[key] / rounds

    def rate(layer: str, key: str, scale: float) -> float:
        return tracer.incl_s[layer] / totals[key] * scale if totals[key] else 0.0

    hits, misses = first["pattern.gate_hits"], first["pattern.gate_misses"]
    cycles, retired = first["pipeline.cycles"], first["pipeline.retired"]
    values = {
        "cli.import_s": (import_s, "s"),
        "cli.overhead_s": (statistics.fmean(overhead), "s"),
        "obs.ledger.commits": (count("ledger.commits"), "count"),
        "obs.ledger.write_s": (per_op("obs.ledger"), "s"),
        "asm.assemble_s": (per_op("asm.assemble"), "s"),
        "cpu.pipeline.run_s": (per_op("cpu.pipeline.run"), "s"),
        "cpu.pipeline.host_us_per_cycle": (
            rate("cpu.pipeline.run", "pipeline.cycles", 1e6), "us"),
        "cpu.pipeline.cycles": (count("pipeline.cycles"), "count"),
        "cpu.pipeline.cpi": (cycles / retired if retired else 0.0, "ratio"),
        "cpu.pipeline.stall_cycles": (count("pipeline.stall_cycles"),
                                      "count"),
        "cpu.pipeline.branch_flushes": (count("pipeline.branch_flushes"),
                                        "count"),
        "cpu.exec_core.execute_calls": (
            count("calls.cpu.exec_core.execute"), "count"),
        "cpu.exec_core.execute_s": (per_op("cpu.exec_core.execute"), "s"),
        "cpu.fastpath.run_s": (per_op("cpu.fastpath.run"), "s"),
        "cpu.fastpath.host_ns_per_instr": (
            rate("cpu.fastpath.run", "fastpath.retired", 1e9), "ns"),
        "cpu.fastpath.retired": (count("fastpath.retired"), "count"),
        "obs.flight.overhead_ratio": (statistics.median(flight_ratio),
                                      "ratio"),
        "cpu.batch.run_s": (per_op("cpu.batch.run"), "s"),
        "cpu.batch.lane_steps": (count("batch.lane_steps"), "count"),
        "cpu.qat_backend.re_gate_calls": (
            count("calls.cpu.qat_backend.re_gate"), "count"),
        "cpu.qat_backend.re_gate_s": (per_op("cpu.qat_backend.re_gate"), "s"),
        "faults.golden_s": (per_op("faults.golden"), "s"),
        "faults.masked": (count("faults.masked"), "count"),
        "faults.detected": (count("faults.detected"), "count"),
        "faults.silent": (count("faults.silent"), "count"),
        "pattern.stores": (count("pattern.stores"), "count"),
        "pattern.binop_calls": (count("calls.pattern.binop"), "count"),
        "pattern.binop_s": (per_op("pattern.binop"), "s"),
        "pattern.memo_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "pattern.symbols": (count("pattern.symbols"), "count"),
        "trace.overhead_ratio": (statistics.median(trace_ratio), "ratio"),
    }
    trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "traced_ops": traced,
        "layers": self_time_table(tracer),
        "spans": [dict(zip(("op", "id", "parent", "name", "start", "end"),
                           span)) for span in tracer.spans],
    }, indent=1), encoding="utf-8")
    print(f"{traced} traced ops; spans -> {trace_file}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time, exit")
    args = parser.parse_args(argv)

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    # A fresh ledger per run, inside the checkout.
    os.environ["TANGLED_LEDGER"] = str(workdir / "ledger.db")
    try:
        import_s = _import_program()
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            result = {"setup_s": _scaled_setup(setup_s)}
        elif args.trace:
            result = traced_run(args, workload, import_s)
        else:
            result = timed_run(args, workload, setup_s)
    except BenchError as exc:
        print(f"tangledbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
