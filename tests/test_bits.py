"""Unit tests for the low-level bit helpers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import WORD_BITS, words_for_bits


class TestWordsForBits:
    def test_one_bit_needs_one_word(self):
        assert words_for_bits(1) == 1

    def test_exact_word(self):
        assert words_for_bits(64) == 1

    def test_word_plus_one(self):
        assert words_for_bits(65) == 2

    def test_qat_full_scale(self):
        assert words_for_bits(1 << 16) == 1024

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            words_for_bits(0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            words_for_bits(-8)

    @given(st.integers(min_value=1, max_value=1 << 20))
    def test_covers_all_bits(self, nbits):
        words = words_for_bits(nbits)
        assert words * WORD_BITS >= nbits
        assert (words - 1) * WORD_BITS < nbits or words == 1
