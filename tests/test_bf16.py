"""bfloat16 ALU tests: bit-exactness and the LUT reciprocal."""

import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bf16 import (
    RECIP_LUT,
    bf16_add,
    bf16_from_float,
    bf16_from_int,
    bf16_mul,
    bf16_neg,
    bf16_recip,
    bf16_to_float,
    bf16_to_int,
)
from repro.bf16.scalar import (
    NAN,
    NEG_INF,
    POS_INF,
    is_inf,
    is_nan,
    is_zero_or_subnormal,
)

normal_bits = st.integers(min_value=0, max_value=0xFFFF).filter(
    lambda b: not (is_nan(b) or is_inf(b) or is_zero_or_subnormal(b))
)
any_bits = st.integers(min_value=0, max_value=0xFFFF)


class TestConversions:
    def test_float32_prefix_property(self):
        """A bfloat16 is exactly a float32 with 16 zero bits catenated."""
        for bits in (0x3F80, 0xC000, 0x4248, 0x0001 | 0x3F80):
            value = bf16_to_float(bits)
            (f32,) = struct.unpack(">I", struct.pack(">f", value))
            assert f32 >> 16 == bits
            assert f32 & 0xFFFF == 0

    def test_known_values(self):
        assert bf16_to_float(0x3F80) == 1.0
        assert bf16_to_float(0x4000) == 2.0
        assert bf16_to_float(0xBF80) == -1.0
        assert bf16_to_float(0x3FC0) == 1.5

    def test_round_to_nearest_even(self):
        # 1 + 2^-8 is exactly halfway between two bf16 values; RNE picks even.
        assert bf16_from_float(1.0 + 2.0**-8) == 0x3F80
        assert bf16_from_float(1.0 + 3 * 2.0**-8) == 0x3F82

    def test_subnormals_flush(self):
        assert bf16_from_float(1e-40) == 0x0000
        assert bf16_from_float(-1e-40) == 0x8000
        assert bf16_to_float(0x0001) == 0.0  # subnormal input reads as 0

    def test_overflow_to_inf(self):
        assert bf16_from_float(1e40) == POS_INF
        assert bf16_from_float(-1e40) == NEG_INF

    def test_nan(self):
        assert bf16_from_float(float("nan")) == NAN
        assert math.isnan(bf16_to_float(NAN))

    @given(normal_bits)
    def test_roundtrip_is_identity(self, bits):
        assert bf16_from_float(bf16_to_float(bits)) == bits

    def test_rejects_out_of_range_pattern(self):
        with pytest.raises(ValueError):
            bf16_to_float(0x10000)


class TestAddMul:
    @given(normal_bits, normal_bits)
    def test_add_is_correctly_rounded(self, a, b):
        expected = bf16_from_float(bf16_to_float(a) + bf16_to_float(b))
        assert bf16_add(a, b) == expected

    @given(normal_bits, normal_bits)
    def test_mul_is_correctly_rounded(self, a, b):
        expected = bf16_from_float(bf16_to_float(a) * bf16_to_float(b))
        assert bf16_mul(a, b) == expected

    @given(any_bits)
    def test_add_zero_identity(self, a):
        if is_nan(a) or is_zero_or_subnormal(a):
            return
        assert bf16_add(a, 0x0000) == a

    @given(any_bits)
    def test_mul_one_identity(self, a):
        if is_nan(a) or is_zero_or_subnormal(a):
            return
        assert bf16_mul(a, 0x3F80) == a

    def test_inf_minus_inf_is_nan(self):
        assert bf16_add(POS_INF, NEG_INF) == NAN

    def test_inf_times_zero_is_nan(self):
        assert bf16_mul(POS_INF, 0x0000) == NAN

    @given(normal_bits, normal_bits)
    def test_commutativity(self, a, b):
        assert bf16_add(a, b) == bf16_add(b, a)
        assert bf16_mul(a, b) == bf16_mul(b, a)


class TestNeg:
    @given(normal_bits)
    def test_neg_involution(self, a):
        assert bf16_neg(bf16_neg(a)) == a

    def test_neg_nan(self):
        assert bf16_neg(NAN) == NAN

    def test_neg_zero(self):
        assert bf16_neg(0x0000) == 0x8000


class TestRecip:
    def test_lut_has_128_entries(self):
        assert len(RECIP_LUT) == 128

    def test_lut_entry_zero_is_exact_one(self):
        assert RECIP_LUT[0] == (0, 0)

    def test_exhaustive_against_rne(self):
        """The LUT reciprocal is bit-exact RNE for every normal input."""
        for bits in range(0x10000):
            if is_nan(bits) or is_inf(bits) or is_zero_or_subnormal(bits):
                continue
            expected = bf16_from_float(1.0 / bf16_to_float(bits))
            assert bf16_recip(bits) == expected, hex(bits)

    def test_special_cases(self):
        assert bf16_recip(POS_INF) == 0x0000
        assert bf16_recip(NEG_INF) == 0x8000
        assert bf16_recip(0x0000) == POS_INF
        assert bf16_recip(0x8000) == NEG_INF
        assert bf16_recip(NAN) == NAN


class TestIntConversion:
    @given(st.integers(min_value=-128, max_value=127))
    def test_small_ints_roundtrip_exactly(self, value):
        assert bf16_to_int(bf16_from_int(value)) == value & 0xFFFF

    def test_truncates_toward_zero(self):
        assert bf16_to_int(bf16_from_float(2.75)) == 2
        assert bf16_to_int(bf16_from_float(-2.75)) == (-2) & 0xFFFF

    def test_saturates(self):
        assert bf16_to_int(bf16_from_float(1e20)) == 32767
        assert bf16_to_int(bf16_from_float(-1e20)) == (-32768) & 0xFFFF

    def test_nan_converts_to_zero(self):
        assert bf16_to_int(NAN) == 0

    def test_accepts_register_patterns(self):
        # 0xFFFF as a register pattern means -1.
        assert bf16_from_int(0xFFFF) == bf16_from_float(-1.0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bf16_from_int(1 << 17)
