"""Experiment harness: regenerates every table/figure-shaped result.

Each ``experiment_*`` function computes the rows for one experiment id of
DESIGN.md's per-experiment index and returns them as a list of dicts; the
``bench_*.py`` files wrap them with pytest-benchmark for timing, and

    python benchmarks/harness.py

prints every table (the output recorded in EXPERIMENTS.md).

The paper is a proof-of-concept without absolute performance tables, so
the quantities here are the ones its text argues about: instruction and
register counts, gate counts and logic depth, CPI and stall behaviour,
compression ratios, and measurement-model contrasts.  Shapes (who wins,
by what factor, where crossovers sit) are the reproduction targets.

All wall-clock timing goes through one pathway: the module-level
``OBS`` telemetry registry (:mod:`repro.obs`) via :func:`_timed`.  Every
measurement therefore also accumulates into named histograms, and
``main()`` installs ``OBS`` globally so the simulators' own telemetry
(pipeline stats, Qat op counts) lands in the same registry the tables
are printed from.
"""

from __future__ import annotations

import numpy as np

from repro import obs

from repro.aob import AoB
from repro.apps import (
    FIG10_SOURCE,
    compile_factor_program,
    factor_channels,
    factor_word_level,
    fig10_program,
    figure9_demo,
    run_factor_program,
)
from repro.asm import assemble
from repro.cpu import (
    CycleCosts,
    FunctionalSimulator,
    MultiCycleSimulator,
    PipelineConfig,
    PipelinedSimulator,
)
from repro.gates import EmitOptions
from repro.hw import had_cost, next_cost
from repro.hw.regfile import port_ablation_table
from repro.pattern import ChunkStore, PatternVector
from repro.pbp import PbpContext
from repro.quantum import (
    QuantumSimulator,
    expected_runs_to_see_all,
    runs_to_collect_all,
)

Row = dict

#: Shared telemetry registry: the harness's single timing pathway.
#: Tracing is off (metrics only) so timing the benches stays cheap.
OBS = obs.Telemetry(enabled=True, tracing=False)


def _timed(name: str, fn, reps: int = 1):
    """Run ``fn`` ``reps`` times under the ``OBS`` timer.

    Returns ``(last_result, mean_seconds)``; the total duration also
    lands in histogram ``name``, so repeated experiments build up
    percentile summaries instead of discarding their timings.
    """
    result = None
    with OBS.timer(name) as timing:
        for _ in range(reps):
            result = fn()
    return result, timing.elapsed / reps


# ---------------------------------------------------------------------------
# FIG1 -- AoB semantics
# ---------------------------------------------------------------------------

def experiment_fig1() -> list[Row]:
    """Figure 1 worked examples: channel pairings and value PDFs."""
    ctx = PbpContext(ways=2)
    uniform = ctx.pint_h(2, 0b11)
    skewed = ctx.pint_from_values(
        [AoB.from_bits([0, 0, 1, 0]), AoB.from_bits([0, 0, 1, 1])]
    )
    rows = []
    for label, pint in (("H(0),H(1) uniform", uniform), ("{0,0,1,0},{0,0,1,1}", skewed)):
        dist = pint.distribution()
        rows.append(
            {
                "vectors": label,
                **{f"P({v})": dist.get(v, 0.0) for v in range(4)},
            }
        )
    return rows


# ---------------------------------------------------------------------------
# TAB1 / TAB2 / TAB3 -- ISA execution
# ---------------------------------------------------------------------------

_TAB1_KERNELS = {
    "alu (add)": "lex $0, 1\n" + "add $0, $0\n" * 64,
    "mul": "lex $0, 3\n" + "mul $0, $0\n" * 64,
    "bfloat16 (addf)": "loadi $0, 0x3F80\nloadi $1, 0x3F00\n" + "addf $0, $1\n" * 64,
    "bfloat16 (recip)": "loadi $0, 0x4080\n" + "recip $0\n" * 64,
    "memory (load/store)": "loadi $1, 0x100\nlex $0, 7\n"
    + "store $0, $1\nload $0, $1\n" * 32,
    "branch loop": "lex $0, 32\nloop: lex $2, -1\nadd $0, $2\nbrt $0, loop\n",
}


def experiment_table1(ways: int = 8) -> list[Row]:
    """Dynamic behaviour of the Table 1 instruction classes: instructions,
    multi-cycle cycles, and pipelined cycles/CPI per kernel."""
    rows = []
    for label, body in _TAB1_KERNELS.items():
        program = assemble(body + "\nlex $rv, 0\nsys\n")
        func = FunctionalSimulator(ways=ways)
        func.load(program)
        func.run()
        multi = MultiCycleSimulator(ways=ways)
        multi.load(program)
        multi_cycles = multi.run()
        pipe = PipelinedSimulator(ways=ways)
        pipe.load(program)
        stats = pipe.run()
        rows.append(
            {
                "kernel": label,
                "instructions": func.machine.instret,
                "multicycle_cycles": multi_cycles,
                "pipeline_cycles": stats.cycles,
                "pipeline_cpi": round(stats.cpi, 3),
            }
        )
    return rows


def experiment_table2(ways: int = 8) -> list[Row]:
    """Pseudo-instruction expansion cost: words and cycles per macro."""
    from repro.asm.macros import LabelRef, expand_macro
    from repro.isa.instructions import INSTRUCTIONS

    cases = {
        "br lab": ("br", (LabelRef("x"),)),
        "jump lab": ("jump", (LabelRef("x"),)),
        "jumpf $c,lab": ("jumpf", (3, LabelRef("x"))),
        "jumpt $c,lab": ("jumpt", (3, LabelRef("x"))),
        "loadi $d,imm8": ("loadi", (0, 42)),
        "loadi $d,imm16": ("loadi", (0, 0x1234)),
    }
    rows = []
    for label, (name, ops) in cases.items():
        expansion = expand_macro(name, ops)
        words = sum(INSTRUCTIONS[p.mnemonic].words for p in expansion)
        rows.append(
            {
                "macro": label,
                "expands_to": " + ".join(p.mnemonic for p in expansion),
                "instructions": len(expansion),
                "words": words,
            }
        )
    return rows


def experiment_table3(ways: int = 16) -> list[Row]:
    """Qat ALU kernel timing on full-scale 65,536-bit AoB values
    (software SIMD throughput of each Table 3 operation)."""
    rng = np.random.default_rng(42)
    a = AoB.random(ways, rng)
    b = AoB.random(ways, rng)
    c = AoB.random(ways, rng)
    ops = {
        "and": lambda: a & b,
        "or": lambda: a | b,
        "xor": lambda: a ^ b,
        "not": lambda: ~a,
        "ccnot": lambda: a.ccnot(b, c),
        "cswap": lambda: a.cswap(b, c),
        "had": lambda: AoB.hadamard(ways, 7),
        "meas": lambda: a.meas(12345),
        "next": lambda: a.next(12345),
        "pop": lambda: a.pop_after(12345),
    }
    rows = []
    for label, fn in ops.items():
        _, elapsed = _timed(f"tab3.{label}", fn, reps=50)
        rows.append(
            {
                "op": label,
                "aob_bits": 1 << ways,
                "microseconds": round(elapsed * 1e6, 2),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# FIG6 -- functional simulator throughput
# ---------------------------------------------------------------------------

def experiment_fig6(ways: int = 8) -> list[Row]:
    """Simulator speed executing the Figure 10 workload."""
    program = fig10_program()
    rows = []
    for label, make in (
        ("functional", lambda: FunctionalSimulator(ways=ways)),
        ("multicycle", lambda: MultiCycleSimulator(ways=ways)),
        ("pipelined-4", lambda: PipelinedSimulator(ways=ways)),
    ):
        sim = make()
        sim.load(program)
        _, elapsed = _timed(f"fig6.{label}", sim.run)
        rows.append(
            {
                "simulator": label,
                "instructions": sim.machine.instret,
                "sim_kips": round(sim.machine.instret / elapsed / 1e3, 1),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# FIG7 / FIG8 -- hardware cost of had and next
# ---------------------------------------------------------------------------

def experiment_fig7() -> list[Row]:
    """had generator hardware cost vs the reserved-constant alternative."""
    rows = []
    for ways in (4, 8, 12, 16):
        cost = had_cost(ways, wide=True)
        rows.append(
            {
                "ways": ways,
                "aob_bits": 1 << ways,
                "generator_gates": cost["gates"],
                "or_inputs": cost["or_inputs"],
                "constant_reg_bits": cost["constant_register_bits"],
            }
        )
    return rows


def experiment_fig8() -> list[Row]:
    """next logic: gate count and depth, wide vs narrow OR-reduction --
    the O(WAYS) vs O(WAYS^2) delay series of section 3.3."""
    rows = []
    for ways in (4, 6, 8, 10, 12, 14, 16):
        wide = next_cost(ways, wide=True)
        narrow = next_cost(ways, wide=False)
        rows.append(
            {
                "ways": ways,
                "gates": wide["gates"],
                "depth_wide_or": wide["depth"],
                "depth_2input_or": narrow["depth"],
            }
        )
    return rows


# ---------------------------------------------------------------------------
# FIG9 / FIG10 -- factoring
# ---------------------------------------------------------------------------

def experiment_fig9() -> list[Row]:
    """Word-level factoring across problem sizes and substrates."""
    cases = [
        (15, 4, 4, "auto", None),
        (221, 5, 5, "auto", None),
        (59 * 61, 6, 6, "auto", None),
        (1013 * 1019, 11, 11, "pattern", 16),
    ]
    rows = []
    for n, bb, bc, backend, chunk in cases:
        pairs, elapsed = _timed(
            f"fig9.n{n}",
            lambda: factor_channels(n, bb, bc, backend=backend, chunk_ways=chunk),
        )
        nontrivial = sorted({p for pair in pairs for p in pair if p not in (1, n)})
        rows.append(
            {
                "n": n,
                "entanglement": bb + bc,
                "backend": backend if backend != "auto" else ("aob" if bb + bc <= 16 else "pattern"),
                "factors": "x".join(str(f) for f in nontrivial) or "prime",
                "ms": round(elapsed * 1e3, 1),
            }
        )
    return rows


def experiment_fig10(ways: int = 8) -> list[Row]:
    """The literal Figure 10 program on each simulator."""
    program = fig10_program()
    rows = []
    for simulator in ("functional", "multicycle", "pipelined"):
        sim, regs = run_factor_program(program, ways=ways, simulator=simulator)
        row = {
            "simulator": simulator,
            "$0": regs[0],
            "$1": regs[1],
            "instructions": sim.machine.instret,
            "cycles": "-",
            "cpi": "-",
        }
        if simulator == "multicycle":
            row["cycles"] = sim.cycles
            row["cpi"] = round(sim.cpi, 3)
        elif simulator == "pipelined":
            row["cycles"] = sim.stats.cycles
            row["cpi"] = round(sim.stats.cpi, 3)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# S31 -- pipeline CPI across configurations
# ---------------------------------------------------------------------------

_S31_WORKLOADS = {
    "straight-line alu": "\n".join(f"lex ${i % 8}, {i % 100}" for i in range(300)),
    "dependent alu": "lex $0, 1\n" + "add $0, $0\n" * 300,
    "qat 2-word heavy": "had @0, 1\nhad @1, 2\n" + "and @2, @0, @1\n" * 150,
    "branchy loop": "lex $0, 60\nloop: lex $2, -1\nadd $0, $2\nbrt $0, loop",
    "figure 10": None,  # special-cased below
}


def experiment_s31(ways: int = 8) -> list[Row]:
    """CPI of 4/5-stage pipelines, with and without forwarding."""
    rows = []
    configs = [
        ("4-stage fwd", PipelineConfig(stages=4, forwarding=True)),
        ("4-stage nofwd", PipelineConfig(stages=4, forwarding=False)),
        ("5-stage fwd", PipelineConfig(stages=5, forwarding=True)),
        ("5-stage nofwd", PipelineConfig(stages=5, forwarding=False)),
    ]
    for label, body in _S31_WORKLOADS.items():
        if body is None:
            program = fig10_program()
        else:
            program = assemble(body + "\nlex $rv, 0\nsys\n")
        row: Row = {"workload": label}
        for cfg_label, cfg in configs:
            sim = PipelinedSimulator(ways=ways, config=cfg)
            sim.load(program)
            stats = sim.run()
            row[cfg_label] = round(stats.cpi, 3)
        rows.append(row)
    return rows


def experiment_s31_teams() -> list[Row]:
    """The 'eight teams' sweep (section 3.1).

    The course produced eight independent pipelined implementations: six
    4-stage and two 5-stage, all "highly functional" and all sustaining
    one instruction per cycle absent interlocks, with design variation in
    the details.  We reproduce the cohort as eight simulator
    configurations (stage count x forwarding x Qat write ports, student
    8-way AoB) and verify every one executes Figure 10 correctly --
    the functional bar all eight teams met.
    """
    program = fig10_program()
    cohort = [
        ("team 1", PipelineConfig(4, True, True)),
        ("team 2", PipelineConfig(4, True, False)),
        ("team 3", PipelineConfig(4, False, True)),
        ("team 4", PipelineConfig(4, False, False)),
        ("team 5", PipelineConfig(4, True, True)),
        ("team 6", PipelineConfig(4, False, True)),
        ("team 7", PipelineConfig(5, True, True)),
        ("team 8", PipelineConfig(5, False, False)),
    ]
    rows = []
    for label, cfg in cohort:
        sim = PipelinedSimulator(ways=8, config=cfg)
        sim.load(program)
        stats = sim.run()
        correct = (sim.machine.read_reg(0), sim.machine.read_reg(1)) == (5, 3)
        rows.append(
            {
                "team": label,
                "stages": cfg.stages,
                "forwarding": "yes" if cfg.forwarding else "no",
                "qat_2nd_wport": "yes" if cfg.second_qat_write_port else "no",
                "fig10_correct": "yes" if correct else "NO",
                "cycles": stats.cycles,
                "cpi": round(stats.cpi, 3),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# S12 -- RE compression scaling
# ---------------------------------------------------------------------------

def experiment_s12() -> list[Row]:
    """Dense vs RE-compressed storage and gate time as entanglement grows.

    The paper's claim: RE encoding cuts storage and computational
    complexity 'by as much as an exponential factor' for regular values.
    """
    rows = []
    store = ChunkStore(16)
    for ways in (16, 18, 20, 22, 24):
        dense_bytes = (1 << ways) // 8
        h = PatternVector.hadamard(ways, ways - 1, store)
        g = PatternVector.hadamard(ways, 0, store)
        result, elapsed = _timed(f"s12.xor.w{ways}", lambda: h ^ g)
        op_us = elapsed * 1e6
        compressed_chunks = result.storage_chunks()
        rows.append(
            {
                "ways": ways,
                "value": f"H({ways - 1}) ^ H(0)",
                "dense_bytes": dense_bytes,
                "runs": result.num_runs,
                "distinct_chunks": compressed_chunks,
                "compression": round(result.compression_ratio(), 1),
                "xor_us": round(op_us, 1),
            }
        )
    # Honesty row: an irregular (random) value does not compress -- the
    # RE win is specific to the structured patterns PBP programs produce.
    rng = np.random.default_rng(12)
    irregular = PatternVector.from_aob(AoB.random(20, rng), store=store)
    result, elapsed = _timed(
        "s12.xor.random", lambda: irregular ^ PatternVector.hadamard(20, 0, store)
    )
    op_us = elapsed * 1e6
    rows.append(
        {
            "ways": 20,
            "value": "random (worst case)",
            "dense_bytes": (1 << 20) // 8,
            "runs": result.num_runs,
            "distinct_chunks": result.storage_chunks(),
            "compression": round(result.compression_ratio(), 1),
            "xor_us": round(op_us, 1),
        }
    )
    return rows


# ---------------------------------------------------------------------------
# S27 -- reductions: next-based vs meas enumeration
# ---------------------------------------------------------------------------

def experiment_s27() -> list[Row]:
    """ANY via next (O(1)-ish) vs meas enumeration (O(2^E)), timed."""
    rows = []
    rng = np.random.default_rng(7)
    for ways in (8, 12, 16):
        a = AoB.random(ways, rng, p=0.001)
        any_fast, fast_s = _timed(
            f"s27.next.w{ways}",
            lambda: a.next(0) != 0 or bool(a.meas(0)),
            reps=20,
        )
        fast_us = fast_s * 1e6

        def enumerate_any():
            for e in range(1 << ways):
                if a.meas(e):
                    return True
            return False

        any_slow, slow_s = _timed(f"s27.meas.w{ways}", enumerate_any)
        slow_us = slow_s * 1e6
        assert any_fast == any_slow == a.any()
        rows.append(
            {
                "ways": ways,
                "channels": 1 << ways,
                "next_based_us": round(fast_us, 1),
                "meas_enumeration_us": round(slow_us, 1),
                "speedup": round(slow_us / fast_us, 1),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# S5A -- ISA simplification ablation
# ---------------------------------------------------------------------------

def experiment_s5(ways: int = 8) -> list[Row]:
    """Emission cost of the factoring circuit per ISA variant."""
    variants = [
        ("paper greedy (Fig 10 style)", EmitOptions(allocator="greedy")),
        ("recycling allocator", EmitOptions(allocator="recycle")),
        ("+ reserved constants", EmitOptions(allocator="recycle", reserved_constants=True)),
        ("irreversible only", EmitOptions(gate_set="irreversible", allocator="recycle")),
        ("reversible only", EmitOptions(gate_set="reversible", allocator="recycle")),
    ]
    rows = []
    for label, options in variants:
        compiled = compile_factor_program(15, 4, 4, options)
        sim, regs = run_factor_program(compiled.program, ways=ways)
        assert regs == (5, 3)
        rows.append(
            {
                "variant": label,
                "qat_instructions": compiled.qat_instructions,
                "code_words": compiled.qat_words,
                "registers": compiled.high_water_regs,
                "pipeline_cycles": sim.stats.cycles,
            }
        )
    return rows


def experiment_s5_regfile() -> list[Row]:
    """Register-file port cost (sections 2.5/5)."""
    return [dict(row) for row in port_ablation_table()]


def experiment_lcpc17() -> list[Row]:
    """Gate-level compiler optimization across a circuit suite.

    The paper's introduction (citing Dietz, LCPC 2017) argues that
    compiler optimization *at the gate level* can cut the gate actions a
    computation needs.  This table quantifies our fold/CSE/DCE pipeline
    on representative PBP circuits: raw vs optimized gate counts and the
    emitted Qat instruction counts (recycling allocator).
    """
    from repro.gates import GateCircuit, multiply, optimize
    from repro.gates.library import equals, equals_const, less_than, ripple_add

    def adder(width):
        c = GateCircuit()
        a = [c.had(k) for k in range(width)]
        b = [c.had(width + k) for k in range(width)]
        total, carry = ripple_add(c, a, b)
        for i, bit in enumerate(total):
            c.mark_output(f"s{i}", bit)
        c.mark_output("carry", carry)
        return c

    def multiplier(width):
        c = GateCircuit()
        a = [c.had(k) for k in range(width)]
        b = [c.had(width + k) for k in range(width)]
        for i, bit in enumerate(multiply(c, a, b)):
            c.mark_output(f"p{i}", bit)
        return c

    def comparator(width):
        c = GateCircuit()
        a = [c.had(k) for k in range(width)]
        b = [c.had(width + k) for k in range(width)]
        c.mark_output("eq", equals(c, a, b))
        c.mark_output("lt", less_than(c, a, b))
        return c

    def factor15():
        from repro.apps.fig10 import build_factor_circuit

        return build_factor_circuit(15, 4, 4, optimized=False)

    suite = {
        "4-bit adder": adder(4),
        "8-bit adder": adder(8),
        "3x3 multiplier": multiplier(3),
        "4x4 multiplier": multiplier(4),
        "8-bit comparator": comparator(8),
        "factor-15 predicate": factor15(),
    }
    rows = []
    for label, circuit in suite.items():
        optimized = optimize(circuit)
        emission = emit_qat_for(optimized)
        rows.append(
            {
                "circuit": label,
                "raw_gates": circuit.gate_count(),
                "optimized_gates": optimized.gate_count(),
                "reduction": f"{circuit.gate_count() / max(1, optimized.gate_count()):.2f}x",
                "qat_instructions": emission.instruction_count,
                "depth": optimized.depth(),
            }
        )
    return rows


def emit_qat_for(circuit):
    from repro.gates import EmitOptions, emit_qat

    return emit_qat(circuit, EmitOptions(allocator="recycle"))


# ---------------------------------------------------------------------------
# QVP -- destructive vs non-destructive measurement
# ---------------------------------------------------------------------------

def experiment_qvp(seed: int = 2021) -> list[Row]:
    """Runs needed to read out all factoring answers: quantum (collapse)
    vs PBP (one non-destructive pass), plus state storage comparison."""
    rng = np.random.default_rng(seed)
    rows = []
    for n, bits in ((15, 4), (221, 5)):
        result = factor_word_level(n, bits, bits)
        counts = {}
        for b, _c in result.pairs:
            counts[b] = counts.get(b, 0) + 1
        distinct = len(counts)
        total = sum(counts.values())
        expected = expected_runs_to_see_all([v / total for v in counts.values()])
        measured = float(
            np.mean(
                [
                    runs_to_collect_all(
                        lambda: _prepared(bits, counts), distinct, rng
                    )
                    for _ in range(200)
                ]
            )
        )
        ways = 2 * bits
        rows.append(
            {
                "n": n,
                "answers": distinct,
                "quantum_expected_runs": round(expected, 2),
                "quantum_measured_runs": round(measured, 2),
                "pbp_readouts": 1,
                "statevector_bytes": (1 << ways) * 16,
                "aob_bytes_per_pbit": (1 << ways) // 8,
            }
        )
    return rows


def _prepared(bits: int, counts: dict[int, int]) -> QuantumSimulator:
    sim = QuantumSimulator(bits)
    sim.prepare_distribution(counts)
    return sim


def experiment_qvp_endtoend(seed: int = 7, trials: int = 30) -> list[Row]:
    """Full-computation comparison on factoring 6 (2+2 bits).

    Quantum side: the complete reversible circuit (Hadamards, controlled
    Cuccaro multiplier, equality flag), one destructive sample per run,
    re-prepared every time; runs counted until both factor pairs have
    been *seen with flag=1*.  PBP side: the same predicate as Qat gates,
    one non-destructive readout of every answer.
    """
    from repro.quantum import build_quantum_factor_circuit, run_factoring

    rng = np.random.default_rng(seed)
    fc = build_quantum_factor_circuit(6, 2, 2)
    gate_counts = fc.circuit.gate_count()
    run_counts = []
    for _ in range(trials):
        seen: set[tuple[int, int]] = set()
        runs = 0
        while seen != {(2, 3), (3, 2)}:
            runs += 1
            b, c, flag = run_factoring(fc, rng)
            if flag:
                seen.add((b, c))
        run_counts.append(runs)
    # PBP: identical predicate, one readout.
    pairs = factor_channels(6, 2, 2)
    compiled = compile_factor_program(6, 2, 2, EmitOptions(allocator="recycle"))
    # Expected runs: two target outcomes at 1/16 each (inclusion-exclusion).
    expected = 16 + 16 - 8
    return [
        {
            "approach": "quantum circuit (destructive)",
            "qubits_or_regs": fc.num_qubits,
            "gates": sum(gate_counts.values()),
            "runs_expected": expected,
            "runs_measured": round(float(np.mean(run_counts)), 1),
            "answers_per_run": "<= 1",
        },
        {
            "approach": "Tangled/Qat PBP (non-destructive)",
            "qubits_or_regs": compiled.high_water_regs,
            "gates": compiled.qat_instructions,
            "runs_expected": 1,
            "runs_measured": 1,
            "answers_per_run": f"all {len(pairs)}",
        },
    ]


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

ALL_EXPERIMENTS = {
    "FIG1  AoB semantics (Figure 1)": experiment_fig1,
    "TAB1  base ISA kernels (Table 1)": experiment_table1,
    "TAB2  pseudo-instructions (Table 2)": experiment_table2,
    "TAB3  Qat ALU ops at 16-way (Table 3)": experiment_table3,
    "FIG6  simulator throughput (Figure 6)": experiment_fig6,
    "FIG7  had generator cost (Figure 7)": experiment_fig7,
    "FIG8  next logic cost (Figure 8)": experiment_fig8,
    "FIG9  word-level factoring (Figure 9)": experiment_fig9,
    "FIG10 Tangled/Qat factoring program (Figure 10)": experiment_fig10,
    "S31   pipeline CPI (section 3.1)": experiment_s31,
    "S31T  the eight-team cohort (section 3.1)": experiment_s31_teams,
    "S12   RE compression scaling (section 1.2)": experiment_s12,
    "S27   reductions via next (section 2.7)": experiment_s27,
    "LC17  gate-level compiler optimization (ref [2])": experiment_lcpc17,
    "S5A   ISA ablation (section 5)": experiment_s5,
    "S5B   register-file ports (sections 2.5/5)": experiment_s5_regfile,
    "QVP   quantum vs PBP measurement": experiment_qvp,
    "QVP2  end-to-end factoring: quantum circuit vs Qat": experiment_qvp_endtoend,
}


def format_table(rows: list[Row]) -> str:
    if not rows:
        return "(no rows)"
    headers = list(rows[0].keys())
    widths = {
        h: max(len(str(h)), *(len(str(r.get(h, ""))) for r in rows)) for h in headers
    }
    lines = ["  ".join(str(h).ljust(widths[h]) for h in headers)]
    lines.append("  ".join("-" * widths[h] for h in headers))
    for row in rows:
        lines.append("  ".join(str(row.get(h, "")).ljust(widths[h]) for h in headers))
    return "\n".join(lines)


def main() -> None:
    print("Tangled/Qat reproduction -- experiment harness")
    print("=" * 64)
    # Route simulator/kernel/chunkstore telemetry into the same registry
    # the timing helpers use: one measurement pathway for everything.
    obs.install(OBS)
    try:
        sanity = figure9_demo()
        print(f"Figure 9 sanity check: pint_measure(f) = {sanity}\n")
        for title, fn in ALL_EXPERIMENTS.items():
            print(title)
            print("-" * len(title))
            print(format_table(fn()))
            print()
    finally:
        obs.disable()
    print(OBS.report())


if __name__ == "__main__":
    main()
