#!/usr/bin/env python
"""Regenerate ``BENCH_batch.json``: batched campaign throughput.

Times the acceptance workload for ``tangled faults --batch N`` -- a
256-run fig10 fault campaign -- these ways:

- ``campaign_serial``: the serial campaign driver (one instrumented
  per-machine drive loop per run, events applied between steps);
- ``campaign_batch256``: the same campaign packed into one 256-lane
  :class:`repro.cpu.batch.BatchFunctionalSimulator`;
- ``campaign_re_serial`` / ``campaign_re_batch256``: both again on the
  run-length compressed Qat substrate (``qat_backend="re"``), where the
  batch lanes share one chunk store and run each gate once per
  distinct operand tuple;
- ``fastpath_single``: 256 plain fastpath ``run()`` loops with no
  fault machinery at all -- the best the per-machine engine can do.
- ``batch_plain256``: the 256-lane batch engine on the same plain
  workload, for an apples-to-apples machines*steps/sec comparison.

The campaign reports are asserted byte-identical (serial vs batch, per
backend) before any number is written.  Rates are aggregate
machines*steps per second; ``speedups`` records batch-vs-serial for the
campaign on both backends and for the plain workload.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_batch_campaign.py
"""

from __future__ import annotations

import json
import time

from repro.apps import fig10_program
from repro.cpu import BatchFunctionalSimulator, FunctionalSimulator
from repro.faults.campaign import render_report, run_campaign

RUNS = 256  # acceptance workload: 256 machines
WORKLOAD = dict(program="fig10", runs=RUNS, seed=7)


def _rate(steps: int, seconds: float) -> dict:
    return {
        "seconds": round(seconds, 4),
        "machine_steps": steps,
        "machine_steps_per_second": round(steps / seconds, 1),
    }


def _time_campaign(**kwargs):
    t0 = time.perf_counter()
    report = run_campaign(**WORKLOAD, **kwargs)
    seconds = time.perf_counter() - t0
    # Nominal aggregate work: every run retires the golden step count
    # unless a fault ends it early; identical accounting on both paths.
    steps = report["golden"]["steps"] * RUNS
    return report, _rate(steps, seconds)


def _time_fastpath_single() -> dict:
    program = fig10_program()
    steps = 0
    t0 = time.perf_counter()
    for _ in range(RUNS):
        sim = FunctionalSimulator(ways=8)
        sim.use_fastpath = True
        sim.load(program)
        sim.run(max_steps=100_000)
        steps += sim.machine.instret
    return _rate(steps, time.perf_counter() - t0)


def _time_batch_plain() -> dict:
    program = fig10_program()
    t0 = time.perf_counter()
    batch = BatchFunctionalSimulator(RUNS, ways=8)
    batch.load(program)
    batch.run(max_steps=100_000)
    assert batch.machines.halted.all()
    steps = int(batch.machines.instret.sum())
    return _rate(steps, time.perf_counter() - t0)


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
    batch_plain = _time_batch_plain()

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
        "batch_plain256": batch_plain,
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
            "plain_batch_vs_fastpath_single": round(
                batch_plain["machine_steps_per_second"]
                / fastpath["machine_steps_per_second"], 2),
        },
    }
    with open("BENCH_batch.json", "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(doc["speedups"], indent=2))


if __name__ == "__main__":
    main()
