"""Exact deterministic counters of ten reference workloads.

Each workload runs once under a fresh metrics-only capture with fresh
chunk stores, and every scalar (non-histogram) metric it touches must
equal the committed value in ``tests/data/counter_baseline.json``
exactly: cycles, CPI, stalls, Qat op and bit volume, chunk gate results
that extended a run or began one, gate-optimizer eliminations.  The
paper's anchor is among them --
Figure 10 factors 15 in 92 instructions and 167 cycles (CPI 1.8152) on
the 4-stage forwarding pipeline.  Wall-clock timing is not measured
here; ``tangledbench/`` is the timing benchmark.

After an intentional change to the timing model or a workload, refresh
the file from the repo root and commit it with the change::

    PYTHONPATH=src:tests python -c "import json, test_counter_baseline as t; \\
    t.BASELINE.write_text(json.dumps({n: t.capture(f) for n, f in \\
    t.WORKLOADS.items()}, sort_keys=True, indent=2) + '\\n')"

then review the ``git diff`` of the JSON: every moved counter should be
one the change meant to move.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.obs.metrics import Histogram

BASELINE = Path(__file__).parent / "data" / "counter_baseline.json"


def _fig10(simulator: str, ways: int = 8, qat_backend: str = "dense",
           **config_kwargs):
    def run():
        from repro.apps import fig10_program, run_factor_program
        from repro.cpu import PipelineConfig

        config = PipelineConfig(**config_kwargs) if config_kwargs else None
        _, regs = run_factor_program(
            fig10_program(), ways=ways, simulator=simulator, config=config,
            qat_backend=qat_backend,
        )
        assert regs == (5, 3)

    return run


def _factor_n221():
    from repro.apps import factor_pairs

    assert (13, 17) in factor_pairs(221, 5, 5)


def _chunkstore_s12():
    from repro.pattern import ChunkStore, PatternVector

    store = ChunkStore(16)
    h = PatternVector.hadamard(18, 17, store)
    g = PatternVector.hadamard(18, 0, store)
    first = h ^ g
    second = h ^ g  # replay: equal values, but new chunk ints
    first & second


def _compiler_factor15():
    from repro.apps import compile_factor_program, run_factor_program
    from repro.gates import EmitOptions

    compiled = compile_factor_program(15, 4, 4,
                                      EmitOptions(allocator="recycle"))
    _, regs = run_factor_program(compiled.program, ways=8)
    assert regs == (5, 3)


def _qat_kernels():
    import numpy as np

    from repro.aob import AoB

    rng = np.random.default_rng(42)
    a = AoB.random(14, rng)
    b = AoB.random(14, rng)
    (a & b) ^ (a | ~b)
    a.next(123)
    a.meas(123)


WORKLOADS = {
    "fig10.functional": _fig10("functional"),
    "fig10.multicycle": _fig10("multicycle"),
    "fig10.pipelined": _fig10("pipelined"),
    "fig10.pipelined_nofwd": _fig10("pipelined", stages=4, forwarding=False),
    "fig10.re": _fig10("functional", qat_backend="re"),
    # 24-way: a dense Qat register file would need 512 MiB.
    "fig10.re_ways24": _fig10("functional", ways=24, qat_backend="re"),
    "factor.n221": _factor_n221,
    "chunkstore.s12": _chunkstore_s12,
    "compiler.factor15": _compiler_factor15,
    "qat.kernels": _qat_kernels,
}


def capture(workload) -> dict:
    """Every scalar metric one run of ``workload`` produces.

    Every workload builds its own chunk store, so earlier work cannot
    shift the chunkstore hit counts; the caller's telemetry is restored
    afterwards.
    """
    previous = obs.current()
    telemetry = obs.enable(tracing=False)
    try:
        workload()
    finally:
        obs.install(previous)
    return {
        name: metric.value
        for name, metric in telemetry.metrics.items()
        if not isinstance(metric, Histogram)
    }


@pytest.fixture(scope="module")
def baseline() -> dict:
    return json.loads(BASELINE.read_text())


def test_baseline_covers_every_workload(baseline):
    assert sorted(baseline) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_match_baseline(name, baseline):
    assert capture(WORKLOADS[name]) == baseline[name]
