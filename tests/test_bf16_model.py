"""The bf16 instructions against an independent float32 model.

The model is written here from the IEEE-754 float32 format with
``struct`` alone: a bfloat16 pattern is the top half of a float32
(exponent 0 read as signed zero); ``addf``/``mulf`` are float32
arithmetic (a float64 sum or product of two float32 values rounds to
float32 correctly in one ``pack``); the float32 result is rounded to
bfloat16 to nearest-even by comparing the dropped half; a NaN becomes
the quiet NaN 0x7FC0 and a subnormal result flushes to signed zero.

``float``, ``int``, ``recip`` and ``negf`` run on all 65,536 inputs and
``addf``/``mulf`` on every pair of :data:`CORNERS`, each through its
``FAST_HANDLERS`` entry (with ``trap_bf16`` off and on) and through the
translated block the stripped functional loop compiles for it.
"""

import functools
import math
import struct
from itertools import product

import pytest

from repro.cpu import FunctionalSimulator, TrapPolicy, fastpath
from repro.cpu.exec_core import FAST_HANDLERS, TEMPLATES
from repro.errors import TrapError
from repro.isa import INSTRUCTIONS, Instr, encode

from tests.conformance import every_leader_hot

QNAN = 0x7FC0
#: float32 magnitudes from here up round to infinity: half an ulp past
#: the largest float32, (2 - 2**-23) * 2**127, ties going to even.
F32_OVERFLOW = 2.0**128 - 2.0**103

#: Signs x exponents x mantissas of finite values -- zeros, subnormals,
#: the smallest and largest normals, exponents 127 apart (sums that tie
#: or cancel, products at the overflow and flush edges) -- plus the
#: infinities and quiet, signalling and all-ones NaNs of either sign.
CORNERS = tuple(
    sign | exp << 7 | man
    for sign, exp, man in product(
        (0, 0x8000),
        (0, 1, 2, 3, 63, 119, 120, 121, 126, 127, 128, 134, 135, 252, 253,
         254),
        (0, 1, 2, 3, 0x0F, 0x10, 0x2A, 0x3F, 0x40, 0x41, 0x55, 0x70, 0x7C,
         0x7D, 0x7E, 0x7F))) + (0x7F80, 0xFF80, 0x7F81, 0x7FC0, 0x7FFF,
                                0xFF81, 0xFFC0, 0xFFFF)


def model_is_nan(bits):
    return (bits >> 7) & 0xFF == 0xFF and bits & 0x7F != 0


@functools.cache
def model_decode(bits):
    """A non-NaN pattern's value; subnormal inputs read as signed zero."""
    if (bits >> 7) & 0xFF == 0:
        bits &= 0x8000
    return struct.unpack(">f", struct.pack(">I", bits << 16))[0]


def model_encode(value):
    """Round a float (exact, or correctly rounded to float32 by the
    pack) to bfloat16."""
    if math.isnan(value):
        return QNAN
    if abs(value) >= F32_OVERFLOW:
        return 0xFF80 if value < 0 else 0x7F80
    f32 = struct.unpack(">I", struct.pack(">f", value))[0]
    upper, dropped = f32 >> 16, f32 & 0xFFFF
    if dropped > 0x8000 or dropped == 0x8000 and upper & 1:
        upper += 1  # may carry into the exponent, up to infinity
    if (upper >> 7) & 0xFF == 0:
        upper &= 0x8000  # subnormal result: flush
    return upper


def model_addf(a, b):
    if model_is_nan(a) or model_is_nan(b):
        return QNAN
    return model_encode(model_decode(a) + model_decode(b))


def model_mulf(a, b):
    if model_is_nan(a) or model_is_nan(b):
        return QNAN
    return model_encode(model_decode(a) * model_decode(b))


def model_negf(d):
    return QNAN if model_is_nan(d) else d ^ 0x8000


def model_recip(d):
    if model_is_nan(d):
        return QNAN
    if d & 0x7F80 == 0:
        return d & 0x8000 | 0x7F80  # 1/0 = signed infinity
    return model_encode(1.0 / model_decode(d))


def model_float(d):
    return model_encode(float(d - 0x10000 if d & 0x8000 else d))


def model_int(d):
    if model_is_nan(d):
        return 0
    value = model_decode(d)
    return int(max(-32768.0, min(32767.0, value))) & 0xFFFF


MODELS = {"addf": model_addf, "mulf": model_mulf, "negf": model_negf,
          "recip": model_recip, "float": model_float, "int": model_int}

ORIGIN = 0x0100


def _instr(mnemonic):
    """``mnemonic`` on ``$0`` (and ``$1``)."""
    return Instr(mnemonic, (0, 1)[:len(INSTRUCTIONS[mnemonic].operands)])


def _machine(instr, trap_bf16):
    """A machine holding ``instr`` then ``sys`` at :data:`ORIGIN`, with
    1.0 in ``$0`` and ``$1``."""
    sim = FunctionalSimulator(ways=6,
                              trap_policy=TrapPolicy(trap_bf16=trap_bf16))
    sim.load(encode(instr) + encode(Instr("sys", ())), origin=ORIGIN)
    sim.machine.regs[:2] = [0x3F80, 0x3F80]
    return sim


def _block(instr):
    """A machine and the translated block of ``instr`` alone."""
    sim = _machine(instr, trap_bf16=False)
    with every_leader_hot():
        fastpath.run_functional(sim, 1)
    block = fastpath.cache_for(sim.machine).blocks[ORIGIN]
    assert block and block[1] == 1, f"{instr.render()} not translated"
    return sim.machine, block[0]


def _results(machine, instr, cases, run=None):
    """``$0`` after each ``(d, s)`` case, ``None`` where it trapped (and
    left ``$0`` alone); runs the instruction's handler, or the translated
    block ``run``."""
    handler, ops = FAST_HANDLERS[instr.mnemonic], instr.ops
    regs = machine.regs
    out = []
    for d, s in cases:
        regs[0], regs[1] = d, s
        try:
            if run is None:
                handler(machine, instr, ops, ORIGIN + 1, None)
            else:
                run(machine)
        except TrapError:
            machine.traps.clear()
            out.append(None if regs[0] == d else regs[0])
        else:
            out.append(regs[0])
    return out


def _check(mnemonic, cases):
    """Run ``(d, s)`` cases through every path; ``s`` is unused by the
    one-register instructions."""
    instr = _instr(mnemonic)
    model = MODELS[mnemonic]
    cases = list(cases)
    want = [model(d, s) if len(instr.ops) == 2 else model(d)
            for d, s in cases]
    # Under trap_bf16 a non-finite result traps and leaves $0 as it was.
    traps = TEMPLATES[mnemonic][2] == "bf16"
    want_strict = [None if traps and w & 0x7F80 == 0x7F80 else w
                   for w in want]
    lenient = _machine(instr, trap_bf16=False).machine
    strict = _machine(instr, trap_bf16=True).machine
    block_machine, run = _block(instr)
    for name, got, expected in (
            ("handler", _results(lenient, instr, cases), want),
            ("block", _results(block_machine, instr, cases, run), want),
            ("trap_bf16 handler", _results(strict, instr, cases),
             want_strict)):
        wrong = [f"$0={d:#06x} $1={s:#06x}: {g} != {w}"
                 for (d, s), g, w in zip(cases, got, expected) if g != w]
        assert not wrong, f"{instr.render()} {name}: {wrong[:5]}"


@pytest.mark.parametrize("mnemonic", ["float", "int", "recip", "negf"])
def test_unary_on_every_input(mnemonic):
    _check(mnemonic, ((d, 0) for d in range(0x10000)))


@pytest.mark.parametrize("mnemonic", ["addf", "mulf"])
def test_binary_on_every_corner_pair(mnemonic):
    assert len(set(CORNERS)) == 520
    _check(mnemonic, product(CORNERS, CORNERS))


@pytest.mark.parametrize("mnemonic", ["addf", "mulf", "recip"])
def test_trapping_rows_stay_out_of_blocks_under_trap_bf16(mnemonic):
    """With ``trap_bf16`` on, the stripped loop runs the handler checked
    above: no translated block holds the instruction."""
    sim = _machine(_instr(mnemonic), trap_bf16=True)
    with every_leader_hot():
        fastpath.run_functional(sim, 1)
    assert fastpath.cache_for(sim.machine).blocks[ORIGIN] == ()
    assert sim.machine.instret == 1


def test_model_reads_known_values():
    assert model_decode(0x3F80) == 1.0 and model_decode(0xC040) == -3.0
    assert model_encode(1.0 + 2.0**-8) == 0x3F80  # tie to even
    assert model_encode(1.0 + 3 * 2.0**-8) == 0x3F82
    assert model_encode(3.4e38) == 0x7F80  # rounds up past the largest bf16
    assert model_encode(-1e-40) == 0x8000
