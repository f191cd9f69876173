"""Seeded looping Tangled/Qat kernels for the two loop workloads.

Every kernel is one counted loop whose body is a chain of basic blocks.
Each block steps a 16-bit LCG held in ``$6``, tests a few of its high
bits to decide a forward branch over a short "then" segment, and then
runs a mix of ALU, multiply, shift, memory, bf16 and Qat work.  From the
seed the generator varies what the simulators' speed depends on:

- loop-body length and the number of distinct hot blocks;
- the memory working set (16 to 4096 words, above the program image);
- each block's branch-taken ratio (1/8 to 7/8);
- the bf16 and Qat share of the body.

Register plan: ``$0``-``$3`` integer accumulators, ``$4`` the bf16
result, ``$5`` the Qat readout accumulator, ``$6`` the LCG state
and ``$7`` the trip counter -- the eight registers ``tangled run``
prints, so the printed line checks every result.  ``$8``/``$9``/``$12``
are temporaries and ``$10``, ``$13``-``$15`` hold constants.  ``$at``
belongs to the assembler's ``loadi``/``jumpt`` macros.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

#: Data working set base: far above any generated program image.
DATA_BASE = 0x8000
#: Qat entanglement ways the kernels run at (the CLI default).
WAYS = 8


@dataclass(frozen=True)
class Kernel:
    """One generated kernel: assembly source plus its shape."""

    name: str
    source: str
    blocks: int
    working_set: int


def _alu(rng: random.Random) -> list[str]:
    d, s = rng.randrange(4), rng.randrange(4)
    kind = rng.randrange(8)
    if kind == 0:
        return [f"mul ${d}, $15"]
    if kind == 1:
        return [f"lex $9, {rng.randint(-4, 4)}", f"shift ${d}, $9"]
    if kind == 2:
        return [f"copy $8, ${s}", f"slt $8, $6", f"add ${d}, $8"]
    if kind == 3:
        return [f"{rng.choice(('not', 'neg'))} ${d}"]
    if kind == 4:
        return [f"lex $8, {rng.randint(-128, 127)}", f"add ${d}, $8"]
    return [f"{rng.choice(('add', 'xor', 'and', 'or'))} ${d}, ${s}"]


def _mem(rng: random.Random) -> list[str]:
    d = rng.randrange(4)
    address = ["copy $8, $6", f"shift $8, $9", "and $8, $14", "add $8, $13"]
    if rng.random() < 0.5:
        return [f"lex $9, {-rng.randint(0, 6)}", *address, f"store ${d}, $8"]
    return [f"lex $9, {-rng.randint(0, 6)}", *address, "load $12, $8",
            f"xor ${d}, $12"]


def _bf16(rng: random.Random) -> list[str]:
    a, b = rng.sample(range(4), 2)
    lines = [f"copy $4, ${a}", "and $4, $10", "float $4",
             f"copy $8, ${b}", "and $8, $10", "float $8",
             f"{rng.choice(('addf', 'mulf'))} $4, $8"]
    if rng.random() < 0.5:
        lines += ["recip $4", "mulf $4, $8"]
    return lines + ["copy $8, $4", "int $8", f"add ${a}, $8"]


def _qat(rng: random.Random) -> list[str]:
    a, b = rng.sample(range(WAYS), 2)
    dest = rng.randrange(8, 64)
    gate = rng.choice(("and", "or", "xor"))
    readout = rng.choice(("meas", "next", "pop"))
    return [f"{gate} @{dest}, @{a}, @{b}", "loadi $8, 255", "and $8, $6",
            f"{readout} $8, @{dest}", "add $5, $8"]


def _block(rng: random.Random, index: int, then: list, body: list) -> list[str]:
    mask = rng.choice((1, 3, 7))
    branch = rng.choice(("brt", "brf"))
    lines = [f"b{index}:", "mul $6, $15", "add $6, $10",
             "copy $8, $6", f"lex $9, {-rng.randint(7, 12)}", "shift $8, $9",
             f"lex $9, {mask}", "and $8, $9", f"{branch} $8, s{index}"]
    for kind in then:
        lines += kind(rng)
    lines.append(f"s{index}:")
    for kind in body:
        lines += kind(rng)
    return lines


def _deal(rng: random.Random, mix: dict, count: int) -> list:
    """``count`` work kinds in the proportions of ``mix``, shuffled.

    Dealing exact shares instead of drawing each one keeps a small
    kernel's mix as close to its target as a large kernel's.
    """
    total = sum(mix.values())
    deck = [kind for kind, weight in mix.items()
            for _ in range(round(count * weight / total))]
    deck = (deck + [_alu] * count)[:count]
    rng.shuffle(deck)
    return deck


def _instructions(lines: list[str]) -> int:
    return sum(1 for line in lines if not line.endswith(":"))


def _kernel(rng: random.Random, name: str, target_instrs: int,
            blocks: int, working_set: int, mix: dict) -> Kernel:
    shape = [(rng.randint(1, 2), rng.randint(2, 6)) for _ in range(blocks)]
    deck = iter(_deal(rng, mix, sum(then + rest for then, rest in shape)))
    body: list[str] = []
    for index, (then, rest) in enumerate(shape):
        body += _block(rng, index, [next(deck) for _ in range(then)],
                       [next(deck) for _ in range(rest)])
    per_trip = _instructions(body) + 4  # counter update + loop-back branch
    trips = max(1, min(0xFFFF, target_instrs // per_trip))
    prologue = [
        f"; kernel {name}: {blocks} blocks, working set {working_set} words",
        f"loadi $7, {trips}",
        *(f"loadi ${reg}, {rng.randrange(1 << 16)}" for reg in (0, 1, 2, 3, 6)),
        "lex $4, 0",
        "lex $5, 0",
        "loadi $10, 0x3bd9",  # LCG increment (odd); also the bf16 operand mask
        f"loadi $13, {DATA_BASE:#x}",
        f"loadi $14, {working_set - 1}",
        "loadi $15, 25173",  # LCG multiplier
        *(f"had @{k}, {k}" for k in range(WAYS)),
    ]
    epilogue = ["lex $8, -1", "add $7, $8", "jumpt $7, top",
                "lex $rv, 0", "sys"]
    source = "\n".join(prologue + ["top:"] + body + epilogue) + "\n"
    return Kernel(name, source, blocks, working_set)


def _strata(rng: random.Random, count: int, low: float, high: float) -> list:
    """One draw per equal slice of [low, high), slices shuffled.

    Every seed's set of kernels then covers each parameter's whole range
    evenly, so the per-run aggregate speed barely depends on the seed
    while each kernel still differs from the next.
    """
    slices = list(range(count))
    rng.shuffle(slices)
    return [low + (s + rng.random()) * (high - low) / count for s in slices]


def generate(seed: int, count: int, target_instrs: int) -> list[Kernel]:
    """``count`` kernels of about ``target_instrs`` retired instructions
    each, drawn from ``seed``; the same seed gives the same sources byte
    for byte."""
    rng = random.Random(f"tangled-kernels-{seed}")
    log_blocks = _strata(rng, count, 0.0, math.log(40))
    log_ws = _strata(rng, count, 4, 13)
    mem = _strata(rng, count, 0.25, 0.6)
    bf16 = _strata(rng, count, 0.1, 0.35)
    qat = _strata(rng, count, 0.03, 0.12)
    return [
        _kernel(rng, f"k{i}", target_instrs,
                blocks=round(math.exp(log_blocks[i])),
                working_set=1 << int(log_ws[i]),
                mix={_alu: 1.0, _mem: mem[i], _bf16: bf16[i], _qat: qat[i]})
        for i in range(count)
    ]
