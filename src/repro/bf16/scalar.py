"""Bit-exact scalar bfloat16 operations.

Layout: bit 15 sign, bits 14..7 biased exponent (bias 127), bits 6..0
mantissa.  A bfloat16 is exactly the top half of an IEEE-754 float32.

Rounding is round-to-nearest-even on the float32 boundary, the behaviour
of hardware that computes in (or converts through) float32 and keeps the
top 16 bits.  Subnormal results flush to signed zero, the usual FPGA-class
simplification (and the one the course library used); subnormal *inputs*
are treated as zero.

An operation is a decode through :data:`SCALE`, one float operation and
one :func:`bf16_from_float`.  The unchecked forms (``fadd`` .. ``frecip``) take
non-NaN 16-bit patterns: ``exec_core.TEMPLATES`` rows test for NaN
inline and call them; the ``bf16_*`` functions validate operands first.
"""

from __future__ import annotations

import math
import struct

from repro.bf16.table import RECIP_LUT

SIGN_MASK = 0x8000
EXP_MASK = 0x7F80
MAN_MASK = 0x007F
EXP_SHIFT = 7
EXP_BIAS = 127

POS_INF = 0x7F80
NEG_INF = 0xFF80
NAN = 0x7FC0

#: Decode table by sign and exponent: ``SCALE[b >> 7] * (128 | b & 127)``
#: is exactly the value of a non-NaN ``b`` (2**(e - 127 - 7) scales the
#: 8-bit significand); exponent 0 reads as signed zero, 255 as infinity.
SCALE = [0.0] + [2.0 ** (e - 134) for e in range(1, 255)] + [math.inf]
SCALE += [-x for x in SCALE]

_pack_f32 = struct.Struct("<f").pack


def bf16_from_float(value: float) -> int:
    """Round a float to bfloat16 through float32, both steps RNE.

    NaN becomes :data:`NAN`, magnitudes past float32 saturate to signed
    infinity, and subnormal results flush to signed zero.
    """
    if value != value:
        return NAN
    try:
        f = int.from_bytes(_pack_f32(value), "little")
    except OverflowError:
        return NEG_INF if value < 0 else POS_INF
    bits = (f + 0x7FFF + (f >> 16 & 1)) >> 16
    return bits if bits & EXP_MASK else bits & SIGN_MASK


def decode(bits: int) -> float:
    """Value of a non-NaN pattern (see :data:`SCALE`)."""
    return SCALE[bits >> EXP_SHIFT] * (128 | bits & MAN_MASK)


def fadd(a: int, b: int) -> int:
    """``addf`` on non-NaN patterns (decode inlined); inf + -inf is NaN."""
    return bf16_from_float(SCALE[a >> 7] * (128 | a & 127)
                           + SCALE[b >> 7] * (128 | b & 127))


def fmul(a: int, b: int) -> int:
    """``mulf`` on non-NaN patterns (decode inlined); inf * 0 is NaN."""
    return bf16_from_float((SCALE[a >> 7] * (128 | a & 127))
                           * (SCALE[b >> 7] * (128 | b & 127)))


def itof(value: int) -> int:
    """``float``: a 16-bit register pattern, read as signed, to bfloat16."""
    return bf16_from_float(float(value - (value & 0x8000) * 2))


def ftoi(bits: int) -> int:
    """``int`` on a non-NaN pattern: truncate, saturating at int16 limits."""
    value = decode(bits)
    if value >= 32767.0:
        return 0x7FFF
    if value <= -32768.0:
        return 0x8000
    return int(value) & 0xFFFF


def frecip(a: int) -> int:
    """``recip`` on a non-NaN pattern via the fraction lookup table.

    Mirrors the course Verilog: the mantissa indexes a pre-computed table
    of normalized reciprocal fractions (:mod:`repro.bf16.table`) while the
    exponent is negated and adjusted; the table entries are themselves
    correctly rounded, so the composite is bit-exact RNE except where the
    exponent under/overflows (flushed / saturated to zero / infinity).
    """
    sign = a & SIGN_MASK
    exp = (a & EXP_MASK) >> EXP_SHIFT
    if exp == 0xFF:
        return sign  # 1/inf = signed zero
    if exp == 0:
        return sign | POS_INF  # 1/0 = signed infinity
    frac_man, exp_adjust = RECIP_LUT[a & MAN_MASK]
    # 1 / (1.m * 2^(exp-127)) = (1/1.m) * 2^(127-exp); 1/1.m is in (0.5, 1]
    # and renormalizes as 1.m' * 2^exp_adjust with exp_adjust in {-1, 0}.
    new_exp = (EXP_BIAS - (exp - EXP_BIAS)) + exp_adjust
    if new_exp <= 0:
        return sign  # underflow: flush
    if new_exp >= 0xFF:
        return sign | POS_INF  # overflow: saturate
    return sign | (new_exp << EXP_SHIFT) | frac_man


def _check(bits: int) -> int:
    if not 0 <= bits <= 0xFFFF:
        raise ValueError(f"bfloat16 bit pattern out of range: {bits:#x}")
    return bits


def is_nan(bits: int) -> bool:
    """True for any NaN encoding."""
    return _check(bits) & 0x7FFF > EXP_MASK


def is_inf(bits: int) -> bool:
    """True for +/- infinity."""
    return _check(bits) & 0x7FFF == EXP_MASK


def is_zero_or_subnormal(bits: int) -> bool:
    """True for +/-0 and subnormals (which this ALU flushes to zero)."""
    return _check(bits) & EXP_MASK == 0


def bf16_to_float(bits: int) -> float:
    """Decode to a Python float (exact: bf16 is a float32 prefix)."""
    return math.nan if is_nan(bits) else decode(bits)


def bf16_neg(bits: int) -> int:
    """Sign flip (``negf $d``); NaN stays NaN."""
    return NAN if is_nan(bits) else bits ^ SIGN_MASK


def bf16_add(a: int, b: int) -> int:
    """Addition (``addf $d,$s``)."""
    return NAN if is_nan(a) | is_nan(b) else fadd(a, b)


def bf16_mul(a: int, b: int) -> int:
    """Multiplication (``mulf $d,$s``)."""
    return NAN if is_nan(a) | is_nan(b) else fmul(a, b)


def bf16_recip(a: int) -> int:
    """Reciprocal (``recip $d``) via the fraction lookup table."""
    return NAN if is_nan(a) else frecip(a)


def bf16_from_int(value: int) -> int:
    """Signed 16-bit integer to bfloat16 with RNE (``float $d``)."""
    if not -0x8000 <= value <= 0xFFFF:
        raise ValueError(f"int16 value out of range: {value}")
    return itof(value & 0xFFFF)


def bf16_to_int(bits: int) -> int:
    """bfloat16 to signed 16-bit integer, truncating toward zero (``int $d``).

    Saturates at the int16 limits; NaN converts to 0.  Returned as the
    16-bit two's-complement register pattern (0..0xFFFF).
    """
    return 0 if is_nan(bits) else ftoi(bits)
