"""The Figure 10 program and the compiler pipeline that regenerates it.

Figure 10 is the complete Tangled/Qat listing factoring 15 (the gate
operations were emitted by the LCPC'20 software-only PBP system; the
readout was hand written).  Here it exists twice:

- :data:`FIG10_SOURCE` -- the literal listing, transcribed from the paper
  (``fig10.s``), runnable on all three simulators; and
- :func:`compile_factor_program` -- our gate-level compiler producing an
  equivalent program for *any* semiprime from the word-level algorithm,
  with the paper's greedy register allocation or the section 5
  improvements (recycling allocator, reserved constant registers,
  alternative gate sets) -- the substrate for the ablation benches.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

from repro.asm import Program, assemble
from repro.cpu import PipelineConfig, new_simulator
from repro.errors import ReproError
from repro.gates import EmitOptions, GateCircuit, emit_qat, multiply, optimize
from repro.gates.library import equals_const

#: The literal Figure 10 listing (transcribed from the paper).
FIG10_SOURCE: str = (
    importlib.resources.files("repro.apps").joinpath("fig10.s").read_text()
)

#: Epilogue we append so the simulators halt after the readout.
_HALT = "\n\tlex\t$rv,0\n\tsys\n"


def fig10_program() -> Program:
    """The assembled Figure 10 program (plus a halting ``sys``)."""
    return assemble(FIG10_SOURCE + _HALT)


@dataclass
class CompiledFactor:
    """A factoring program produced by our compiler pipeline."""

    n: int
    bits_b: int
    bits_c: int
    asm: str
    program: Program
    e_reg: int  #: Qat register holding the equality pbit
    qat_instructions: int
    qat_words: int
    high_water_regs: int
    gate_count: int


def build_factor_circuit(n: int, bits_b: int, bits_c: int, optimized: bool = True) -> GateCircuit:
    """Gate circuit computing ``e = (b * c == n)`` over Hadamard inputs."""
    circuit = GateCircuit()
    b = [circuit.had(k) for k in range(bits_b)]
    c = [circuit.had(bits_b + k) for k in range(bits_c)]
    product = multiply(circuit, b, c)
    e = equals_const(circuit, product, n)
    circuit.mark_output("e", e)
    return optimize(circuit) if optimized else circuit


def compile_factor_program(
    n: int,
    bits_b: int,
    bits_c: int,
    options: EmitOptions | None = None,
    optimized: bool = True,
    skip_trivial: bool = True,
) -> CompiledFactor:
    """Compile a complete factoring program like Figure 10.

    The readout mirrors the paper's hand-written epilogue: start the
    ``next`` walk after the trivial ``(n, 1)`` channel, take two hits,
    and mask each down to ``b`` with ``and``.
    """
    if n <= 0 or n >> (bits_b + bits_c):
        raise ReproError(f"{n} does not fit in {bits_b}+{bits_c} bits")
    circuit = build_factor_circuit(n, bits_b, bits_c, optimized=optimized)
    options = options or EmitOptions()
    emission = emit_qat(circuit, options)
    e_reg = emission.output_regs["e"]
    prologue: list[str] = []
    if options.reserved_constants:
        # In hardware these registers would be constant-wired (section 5);
        # the simulator must materialize them once at program start.
        prologue.append("\tzero\t@0")
        prologue.append("\tone\t@1")
        prologue.extend(f"\thad\t@{2 + k},{k}" for k in range(16))
    if skip_trivial and n < (1 << bits_b) and n < (1 << bits_c):
        # Channel of the (n, 1) pair -- Figure 10's "lex $0,31" for n=15.
        start = n + (1 << bits_b)
    else:
        start = 0
    mask = (1 << bits_b) - 1
    lines = prologue + [f"\t{line}" for line in emission.lines]
    lines += [
        f"\tloadi\t$0,{start}",
        f"\tnext\t$0,@{e_reg}",
        "\tcopy\t$1,$0",
        f"\tnext\t$1,@{e_reg}",
        f"\tloadi\t$2,{mask}",
        "\tand\t$0,$2",
        "\tand\t$1,$2",
        "\tlex\t$rv,0",
        "\tsys",
    ]
    asm = "\n".join(lines) + "\n"
    return CompiledFactor(
        n=n,
        bits_b=bits_b,
        bits_c=bits_c,
        asm=asm,
        program=assemble(asm),
        e_reg=e_reg,
        qat_instructions=emission.instruction_count,
        qat_words=emission.word_count,
        high_water_regs=emission.high_water_regs,
        gate_count=circuit.gate_count(),
    )


def run_factor_program(
    program: Program,
    ways: int = 8,
    simulator: str = "pipelined",
    config: PipelineConfig | None = None,
    qat_backend: str = "dense",
):
    """Run a factoring program; returns ``(simulator, ($0, $1))``.

    ``simulator`` is ``"functional"``, ``"multicycle"`` or ``"pipelined"``;
    ``qat_backend`` selects the Qat register substrate (``"dense"`` or
    ``"re"``), which is what lets this run at ways well past 26.
    """
    sim = new_simulator(simulator, ways, qat_backend, config=config)
    sim.load(program)
    sim.run()
    return sim, (sim.machine.read_reg(0), sim.machine.read_reg(1))


def profile_factor_program(
    program: Program | None = None,
    ways: int = 8,
    simulator: str = "pipelined",
    config: PipelineConfig | None = None,
    qat_backend: str = "dense",
):
    """Run a factoring program under the architectural profiler.

    Defaults to the literal Figure 10 listing.  Returns
    ``(simulator, profiler)`` -- the profiler's per-PC ledger
    (:meth:`~repro.obs.profile.Profiler.as_dict`) is the programmatic
    view behind ``tangled profile fig10``, with per-PC cycles summing
    exactly to the run's cycle count.
    """
    from repro.obs.profile import profile_program

    if program is None:
        program = fig10_program()
    return profile_program(program, ways=ways, simulator=simulator,
                           config=config, qat_backend=qat_backend)
