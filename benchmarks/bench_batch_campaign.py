#!/usr/bin/env python
"""Regenerate ``BENCH_batch.json``: batched campaign throughput.

Times the acceptance workload for ``tangled faults --batch N`` -- a
256-run fig10 fault campaign -- these ways:

- ``campaign_serial``: the serial campaign driver (one instrumented
  per-machine drive loop per run, events applied between steps);
- ``campaign_batch256``: the same campaign packed into one 256-lane
  :class:`repro.cpu.batch.BatchFunctionalSimulator`, whose lanes are
  functional machines run one after another on the stripped loop;
- ``campaign_re_serial`` / ``campaign_re_batch256``: both again on the
  run-length compressed Qat substrate (``qat_backend="re"``), where the
  batch lanes share one chunk store and run each gate once per
  distinct operand tuple;
- ``fastpath_single``: 256 plain fastpath ``run()`` loops with no
  fault machinery at all -- the best the per-machine engine can do.

The campaign reports are asserted byte-identical (serial vs batch, per
backend) before any number is written.  Each configuration runs once
untimed, then ``REPEATS`` timed times; ``seconds`` is the median.
Rates are aggregate machines*steps per second; ``speedups`` records
batch-vs-serial for the campaign on both backends.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_batch_campaign.py
"""

from __future__ import annotations

import json
import statistics
import time

from repro.apps import fig10_program
from repro.cpu import FunctionalSimulator
from repro.faults.campaign import render_report, run_campaign

RUNS = 256  # acceptance workload: 256 machines
REPEATS = 5  # timed repeats per configuration; the median is recorded
WORKLOAD = dict(program="fig10", runs=RUNS, seed=7)


def _rate(steps: int, seconds: float) -> dict:
    return {
        "seconds": round(seconds, 4),
        "machine_steps": steps,
        "machine_steps_per_second": round(steps / seconds, 1),
    }


def _median_seconds(work) -> float:
    """Median wall time of ``REPEATS`` calls of ``work``; one sample
    swings by half on a shared host."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        work()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _time_campaign(**kwargs):
    report = run_campaign(**WORKLOAD, **kwargs)
    seconds = _median_seconds(lambda: run_campaign(**WORKLOAD, **kwargs))
    # Nominal aggregate work: every run retires the golden step count
    # unless a fault ends it early; identical accounting on both paths.
    steps = report["golden"]["steps"] * RUNS
    return report, _rate(steps, seconds)


def _time_fastpath_single() -> dict:
    program = fig10_program()

    def work() -> int:
        steps = 0
        for _ in range(RUNS):
            sim = FunctionalSimulator(ways=8)
            sim.load(program)
            sim.run(max_steps=100_000)
            steps += sim.machine.instret
        return steps

    steps = work()  # untimed, like each campaign's first run
    return _rate(steps, _median_seconds(work))


def _time_serial_and_batch(**kwargs):
    serial_report, serial = _time_campaign(**kwargs)
    batch_report, batch = _time_campaign(batch=RUNS, **kwargs)
    assert render_report(serial_report) == render_report(batch_report), \
        f"batch campaign report diverged from serial ({kwargs})"
    return serial_report, serial, batch


def main() -> None:
    serial_report, serial, batch = _time_serial_and_batch()
    _, re_serial, re_batch = _time_serial_and_batch(qat_backend="re")

    fastpath = _time_fastpath_single()

    doc = {
        "workload": {
            "program": "fig10",
            "runs": RUNS,
            "seed": 7,
            "faults_per_run": 1,
            "golden_steps": serial_report["golden"]["steps"],
        },
        "campaign_serial": serial,
        "campaign_batch256": batch,
        "campaign_re_serial": re_serial,
        "campaign_re_batch256": re_batch,
        "fastpath_single": fastpath,
        "speedups": {
            "campaign_batch_vs_serial": round(
                batch["machine_steps_per_second"]
                / serial["machine_steps_per_second"], 2),
            "campaign_re_batch_vs_serial": round(
                re_batch["machine_steps_per_second"]
                / re_serial["machine_steps_per_second"], 2),
            "campaign_batch_vs_fastpath_single": round(
                batch["machine_steps_per_second"]
                / fastpath["machine_steps_per_second"], 2),
        },
    }
    with open("BENCH_batch.json", "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(doc["speedups"], indent=2))


if __name__ == "__main__":
    main()
