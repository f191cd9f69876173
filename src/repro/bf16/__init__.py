"""Software bfloat16 ALU matching the Verilog library given to students.

The paper's Tangled host uses bfloat16 (1 sign / 8 exponent / 7 mantissa)
"because there are ALU implementations of all the basic floating-point
operations that can be treated as single-cycle delay", and its reciprocal
hardware uses "a lookup table for computing fraction reciprocals".

This package provides bit-exact scalar operations (:mod:`repro.bf16.scalar`)
and the reciprocal fraction LUT (:mod:`repro.bf16.table`).  Values are
carried as ``int`` bit patterns (0..0xFFFF); a bfloat16 becomes an IEEE
float32 by catenating sixteen zero bits, exactly as the paper notes.
"""

from repro.bf16.scalar import (
    bf16_add,
    bf16_from_float,
    bf16_from_int,
    bf16_mul,
    bf16_neg,
    bf16_recip,
    bf16_to_float,
    bf16_to_int,
)
from repro.bf16.table import RECIP_LUT, recip_lut

__all__ = [
    "RECIP_LUT",
    "bf16_add",
    "bf16_from_float",
    "bf16_from_int",
    "bf16_mul",
    "bf16_neg",
    "bf16_recip",
    "bf16_to_float",
    "bf16_to_int",
    "recip_lut",
]
