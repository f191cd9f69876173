"""The benchmark's four workloads: seeded inputs, references and checks.

Each workload turns the run's seed into a list of inputs at set-up and
hands out one :class:`Op` at a time: the ``tangled`` argv the op times,
the work it completes, and a check of the op's printed output.  Ops run
in-process through :func:`run_cli`, i.e. ``repro.cli.main(argv)`` -- the
code a ``tangled`` invocation runs, minus interpreter start and import.

Why each workload exists is in README.md next to this file.
"""

from __future__ import annotations

import ast
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import kernels

#: Kernels per loop-workload run; ops cycle through them.
LOOP_KERNELS = 4
#: Retired instructions per loop-workload op.  The functional target is
#: scaled so one op lasts about as long as one pipelined op.
PIPELINED_INSTRS = 50_000
FUNCTIONAL_INSTRS = 300_000
#: Faulted runs per ``campaign_re`` op (``--batch`` and ``--runs``).
CAMPAIGN_RUNS = 256
#: Inputs generated at set-up for the workloads whose every op is new;
#: far more than one run can use.
DISTINCT_INPUTS = 1000
#: ``factor_re`` factor width: two 9-bit primes, 18-way entanglement.
FACTOR_BITS = 9
FACTOR_CHUNK_WAYS = 10


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``tangled <argv>`` in this process: (exit status, stdout, stderr)."""
    from repro import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(argv)
    return status, out.getvalue(), err.getvalue()


@dataclass
class Op:
    """One timed ``tangled`` invocation and how to verify it.

    ``slot`` groups ops that repeat the same work (one loop kernel);
    ``check`` takes the op's stdout and returns an error message, or
    ``None`` when the output is right.
    """

    argv: list[str]
    slot: int
    work: int
    check: Callable[[str], str | None]


def _registers(stdout: str) -> list[int] | None:
    for line in stdout.splitlines():
        if line.startswith("registers:"):
            return [int(field.split("=")[1]) for field in line.split()[1:]]
    return None


class LoopWorkload:
    """``tangled run K.s --sim <engine>`` over seeded looping kernels.

    Set-up writes each kernel's source and runs it once on the
    functional engine for its reference registers and retired count.
    """

    unit = "instructions"

    def __init__(self, sim: str, target_instrs: int, seed: int,
                 workdir: Path):
        from repro.asm import assemble
        from repro.cpu import FunctionalSimulator

        self.sim = sim
        self.kernels = kernels.generate(seed, LOOP_KERNELS, target_instrs)
        self.paths: list[str] = []
        self.expected: list[list[int]] = []
        self.retired: list[int] = []
        self.cycle_lines: dict[int, str] = {}
        for kernel in self.kernels:
            path = workdir / f"{kernel.name}.s"
            path.write_text(kernel.source, encoding="utf-8")
            self.paths.append(str(path))
            reference = FunctionalSimulator(ways=kernels.WAYS)
            reference.load(assemble(kernel.source))
            reference.run(10 * target_instrs)
            if not reference.machine.halted:
                raise RuntimeError(f"kernel {kernel.name} did not halt")
            self.expected.append(
                [reference.machine.read_reg(i) for i in range(8)])
            self.retired.append(reference.machine.instret)

    @property
    def slots(self) -> int:
        return len(self.kernels)

    def op(self, index: int) -> Op:
        slot = index % len(self.kernels)
        argv = ["run", self.paths[slot], "--sim", self.sim,
                "--limit", str(20 * self.retired[slot])]
        return Op(argv, slot, self.retired[slot],
                  lambda stdout: self._check(slot, stdout))

    def _check(self, slot: int, stdout: str) -> str | None:
        registers = _registers(stdout)
        if registers != self.expected[slot]:
            return (f"kernel {slot}: registers {registers}, functional "
                    f"reference {self.expected[slot]}")
        if self.sim == "functional":
            want = f"instructions: {self.retired[slot]}"
            if want not in stdout.splitlines():
                return f"kernel {slot}: expected {want!r}"
            return None
        # Simulated timing is deterministic: every op of one kernel must
        # print the cycles/CPI/stalls line its first op printed.
        line = next((x for x in stdout.splitlines()
                     if x.startswith("cycles:")), None)
        first = self.cycle_lines.setdefault(slot, line)
        if line is None or line != first:
            return f"kernel {slot}: {line!r}, first op printed {first!r}"
        return None


class CampaignWorkload:
    """``tangled faults --program fig10 --qat-backend re --batch 256``
    with a new campaign seed per op, checked against the same campaign
    on the dense backend.

    Ops pass ``--no-ledger``: the campaign journals one ledger row per
    faulted run, 258 fsync'd SQLite commits per op, and on a shared
    virtual disk their time drifted between 0.26 s and 1.4 s per op --
    more than the whole simulation costs.  The ledger may only live
    inside the checkout, so no steadier file system is available.
    """

    unit = "faulted runs"
    slots = 1

    def __init__(self, seed: int):
        rng = random.Random(f"tangled-campaign-{seed}")
        self.seeds = [rng.randrange(1, 1 << 31)
                      for _ in range(DISTINCT_INPUTS)]

    def argv(self, campaign_seed: int, backend: str) -> list[str]:
        return ["faults", "--program", "fig10", "--qat-backend", backend,
                "--batch", str(CAMPAIGN_RUNS), "--runs", str(CAMPAIGN_RUNS),
                "--seed", str(campaign_seed), "--summary-only", "--no-ledger"]

    def op(self, index: int) -> Op:
        campaign_seed = self.seeds[index % len(self.seeds)]
        return Op(self.argv(campaign_seed, "re"), 0, CAMPAIGN_RUNS,
                  lambda stdout: self._check(campaign_seed, stdout))

    def _check(self, campaign_seed: int, stdout: str) -> str | None:
        status, dense_out, err = run_cli(self.argv(campaign_seed, "dense"))
        if status != 0:
            return f"dense campaign exited {status}: {err.strip()}"
        report, dense = json.loads(stdout), json.loads(dense_out)
        if report.pop("qat_backend") != "re" or \
                dense.pop("qat_backend") != "dense":
            return "reports do not name their backends"
        if report != dense:
            return f"seed {campaign_seed}: RE and dense reports differ"
        if report["summary"]["toxic"] != 0:
            return f"seed {campaign_seed}: {report['summary']['toxic']} toxic"
        golden = (report["golden"]["r0"], report["golden"]["r1"])
        if golden != (5, 3):
            return f"golden factors {golden}, expected (5, 3)"
        return None


def _primes(low: int, high: int) -> list[int]:
    return [n for n in range(low | 1, high, 2)
            if all(n % d for d in range(3, int(n ** 0.5) + 1, 2))]


class FactorWorkload:
    """``tangled factor n --bits 9 --pattern --chunk-ways 10`` over
    seeded semiprimes of two 9-bit primes."""

    unit = "factorings"
    slots = 1

    def __init__(self, seed: int):
        primes = _primes(1 << (FACTOR_BITS - 1), 1 << FACTOR_BITS)
        rng = random.Random(f"tangled-factor-{seed}")
        self.pairs = [tuple(sorted(rng.sample(primes, 2)))
                      for _ in range(DISTINCT_INPUTS)]

    def op(self, index: int) -> Op:
        p, q = self.pairs[index % len(self.pairs)]
        argv = ["factor", str(p * q), "--bits", str(FACTOR_BITS),
                "--pattern", "--chunk-ways", str(FACTOR_CHUNK_WAYS)]
        return Op(argv, 0, 1, lambda stdout: self._check(p, q, stdout))

    @staticmethod
    def _check(p: int, q: int, stdout: str) -> str | None:
        for line in stdout.splitlines():
            if line.startswith("factor pairs:"):
                pairs = ast.literal_eval(line.split(":", 1)[1].strip())
                if (p, q) in pairs:
                    return None
                return f"{p * q}: planted ({p}, {q}) not in {pairs}"
        return f"{p * q}: no factor pairs printed"


#: Workload name -> constructor(seed, workdir).
WORKLOADS: dict[str, Callable] = {
    "loop_pipelined": lambda seed, workdir: LoopWorkload(
        "pipelined", PIPELINED_INSTRS, seed, workdir),
    "loop_functional": lambda seed, workdir: LoopWorkload(
        "functional", FUNCTIONAL_INSTRS, seed, workdir),
    "campaign_re": lambda seed, workdir: CampaignWorkload(seed),
    "factor_re": lambda seed, workdir: FactorWorkload(seed),
}
