"""Unit tests for the low-level bit helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.bits import (
    WORD_BITS,
    ctz64,
    hadamard_word,
    popcount_words,
    top_mask,
    words_for_bits,
)


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


class TestTopMask:
    def test_full_word(self):
        assert top_mask(64) == np.uint64(0xFFFF_FFFF_FFFF_FFFF)

    def test_multiple_of_64(self):
        assert top_mask(256) == np.uint64(0xFFFF_FFFF_FFFF_FFFF)

    def test_partial(self):
        assert top_mask(4) == np.uint64(0xF)

    def test_single_bit(self):
        assert top_mask(1) == np.uint64(1)

    @given(st.integers(min_value=1, max_value=63))
    def test_partial_popcount(self, rem):
        assert int(top_mask(rem)).bit_count() == rem


class TestCtz64:
    def test_lsb(self):
        assert ctz64(1) == 0

    def test_msb(self):
        assert ctz64(1 << 63) == 63

    def test_mixed(self):
        assert ctz64(0b1011000) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            ctz64(0)

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=(1 << 60) - 1))
    def test_matches_reference(self, shift, garbage):
        word = (1 << shift) | ((garbage << (shift + 1)) & 0xFFFF_FFFF_FFFF_FFFF)
        assert ctz64(word) == shift


class TestHadamardWord:
    def test_k0_alternates(self):
        assert hadamard_word(0) == np.uint64(0xAAAA_AAAA_AAAA_AAAA)

    def test_k1_pairs(self):
        assert hadamard_word(1) == np.uint64(0xCCCC_CCCC_CCCC_CCCC)

    def test_k5_halves(self):
        assert hadamard_word(5) == np.uint64(0xFFFF_FFFF_0000_0000)

    def test_bit_semantics(self):
        for k in range(6):
            word = int(hadamard_word(k))
            for e in range(64):
                assert (word >> e) & 1 == (e >> k) & 1

    def test_rejects_k6(self):
        with pytest.raises(ValueError):
            hadamard_word(6)

    def test_rejects_negative_k(self):
        """A table lookup must not wrap ``k = -1`` to the last entry."""
        with pytest.raises(ValueError):
            hadamard_word(-1)


class TestPopcountWords:
    def test_empty(self):
        assert popcount_words(np.array([], dtype=np.uint64)) == 0

    def test_all_ones_word(self):
        assert popcount_words(np.array([0xFFFF_FFFF_FFFF_FFFF], dtype=np.uint64)) == 64

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 64) - 1), min_size=1, max_size=8))
    def test_matches_python_bitcount(self, values):
        arr = np.array(values, dtype=np.uint64)
        assert popcount_words(arr) == sum(v.bit_count() for v in values)
