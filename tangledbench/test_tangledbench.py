"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest tangledbench -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

import kernels
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def small(monkeypatch, tmp_path):
    """Shrink every workload's op so a whole run takes seconds, and put
    the environment back afterwards."""
    monkeypatch.setattr(workloads, "LOOP_KERNELS", 2)
    monkeypatch.setattr(workloads, "PIPELINED_INSTRS", 3000)
    monkeypatch.setattr(workloads, "FUNCTIONAL_INSTRS", 5000)
    monkeypatch.setattr(workloads, "CAMPAIGN_RUNS", 16)
    monkeypatch.setattr(workloads, "DISTINCT_INPUTS", 8)
    saved = dict(os.environ)
    for name in run._PROGRAM_ENV:
        os.environ.pop(name, None)
    os.environ["TANGLED_LEDGER"] = str(tmp_path / "ledger.db")
    run._import_program()
    yield tmp_path
    os.environ.clear()
    os.environ.update(saved)


def test_same_seed_regenerates_byte_identical_inputs():
    first = [k.source for k in kernels.generate(5, 4, 50_000)]
    again = [k.source for k in kernels.generate(5, 4, 50_000)]
    other = [k.source for k in kernels.generate(6, 4, 50_000)]
    assert first == again
    assert first != other
    assert workloads.CampaignWorkload(5).seeds == \
        workloads.CampaignWorkload(5).seeds
    assert workloads.FactorWorkload(5).pairs == \
        workloads.FactorWorkload(5).pairs
    assert workloads.FactorWorkload(5).pairs != \
        workloads.FactorWorkload(6).pairs


def test_kernels_vary_shape_across_a_run():
    shapes = [(k.blocks, k.working_set) for k in kernels.generate(3, 8, 50_000)]
    assert len({blocks for blocks, _ in shapes}) > 2
    assert len({ws for _, ws in shapes}) > 2


@pytest.mark.parametrize("name", ["loop_pipelined", "loop_functional"])
def test_planted_wrong_registers_fail_the_op(small, name):
    workload = workloads.WORKLOADS[name](1, small)
    tally = run.Tally()
    op = workload.op(0)
    assert tally.add(op, run._attempt(op)[1])
    workload.expected[0][3] ^= 1
    assert not tally.add(op, run._attempt(op)[1])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_pipelined_cycle_drift_fails_the_op(small):
    workload = workloads.WORKLOADS["loop_pipelined"](1, small)
    op = workload.op(0)
    assert run._attempt(op)[1] is None
    workload.cycle_lines[0] = "cycles: 1  cpi: 1.0"
    assert "first op printed" in run._attempt(op)[1]


def test_planted_wrong_factor_fails_the_op(small):
    workload = workloads.WORKLOADS["factor_re"](1, small)
    op = workload.op(0)
    seconds, error, stdout = run._attempt(op)
    assert error is None
    p, q = workload.pairs[0]
    assert workload._check(p, q + 2, stdout) is not None


def test_campaign_report_mismatch_fails_the_op(small):
    workload = workloads.WORKLOADS["campaign_re"](1, small)
    op = workload.op(0)
    seconds, error, stdout = run._attempt(op)
    assert error is None
    report = json.loads(stdout)
    report["summary"]["masked"] += 1
    assert "differ" in op.check(json.dumps(report))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(small, name, capsys):
    assert run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    exercised = {
        "loop_pipelined": ("cpu.pipeline.cycles", "cpu.exec_core.execute_s",
                           "asm.assemble_s", "obs.ledger.commits"),
        "loop_functional": ("cpu.fastpath.retired",
                            "cpu.fastpath.host_ns_per_instr"),
        "campaign_re": ("cpu.batch.lane_steps", "cpu.qat_backend.re_gate_s",
                        "pattern.stores", "faults.masked"),
        "factor_re": ("pattern.binop_calls", "pattern.memo_hit_ratio"),
    }[name]
    for metric in exercised:
        assert metrics[metric]["value"] > 0, metric
    trace = json.loads(
        (run.OUT / f"trace-{name}-seed1.json").read_text(encoding="utf-8"))
    assert {span["name"] for span in trace["spans"]} >= {"op"}


def test_traced_counts_repeat_exactly(small, capsys):
    counts = []
    for _ in range(2):
        run.main(["--workload", "loop_pipelined", "--seed", "2",
                  "--seconds", "0", "--trace", "1"])
        metrics = json.loads(capsys.readouterr().out.splitlines()[-1])[
            "metrics"]
        counts.append({name: metric["value"]
                       for name, metric in metrics.items()
                       if metric["unit"] == "count"})
    assert counts[0] == counts[1]


def test_timed_run_reports_every_end_to_end_metric(small, capsys):
    assert run.main(["--workload", "factor_re", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"] and metric["value"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_command_and_paths_match_this_directory():
    assert SPEC["paths"] == [Path(__file__).parent.name]
    assert SPEC["command"][1] == f"{SPEC['paths'][0]}/run.py"
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
