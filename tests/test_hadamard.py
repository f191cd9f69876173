"""Hadamard pattern tests -- the Figure 7 / section 2.3 semantics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aob import AoB, hadamard_bit, hadamard_int


class TestHadamardBit:
    def test_figure7_semantics(self):
        """aob[i] = bit k of i, for every (i, k) in a small range."""
        for k in range(8):
            for e in range(256):
                assert hadamard_bit(e, k) == (e >> k) & 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hadamard_bit(-1, 0)


class TestHadamardWords:
    @given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=15))
    def test_every_channel_matches_figure7(self, ways, k):
        a = AoB(ways, hadamard_int(ways, k))
        bits = a.to_bool_array()
        idx = np.arange(1 << ways)
        expected = ((idx >> k) & 1).astype(bool)
        assert np.array_equal(bits, expected)

    def test_had_k0_even_odd(self):
        """Section 2.3: had @a,0 makes every even channel 0, odd channel 1."""
        a = AoB.hadamard(8, 0)
        for e in range(256):
            assert a.meas(e) == e & 1

    def test_had_k15_halves(self):
        """Section 2.3: H(15) is 32,768 zeros then 32,768 ones."""
        a = AoB.hadamard(16, 15)
        assert a.meas(0) == 0
        assert a.meas(32767) == 0
        assert a.meas(32768) == 1
        assert a.meas(65535) == 1
        assert a.popcount() == 32768

    def test_k_at_or_beyond_ways_is_zero(self):
        """Figure 7: i >> h is 0 once h passes the top of i."""
        for ways in (2, 4, 6):
            for k in range(ways, 16):
                assert not AoB.hadamard(ways, k).any()

    def test_probability_is_half(self):
        for k in range(8):
            assert AoB.hadamard(8, k).probability() == 0.5

    def test_run_structure(self):
        """H(k) is runs of 2^k zeros then 2^k ones (section 2.3)."""
        a = AoB.hadamard(6, 3)
        assert a.to_rle_string(10) == "0^8 1^8 0^8 1^8 0^8 1^8 0^8 1^8"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hadamard_int(4, -1)
        with pytest.raises(ValueError):
            hadamard_int(-1, 0)

    def test_hadamards_are_independent(self):
        """Distinct H(k) patterns jointly enumerate all combinations --
        the property that makes disjoint channel sets work."""
        ways = 5
        hs = [AoB.hadamard(ways, k) for k in range(ways)]
        seen = set()
        for e in range(1 << ways):
            seen.add(tuple(h.meas(e) for h in hs))
        assert len(seen) == 1 << ways
