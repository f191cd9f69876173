"""Register-file invariants the CPU relies on: the dense Qat backend's
int registers and the :class:`AoB` value type."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aob import AoB
from repro.cpu import DenseQatBackend


def random_value(rng, ways):
    """A random int of exactly ``2**ways`` channels."""
    nbits = 1 << ways
    raw = int.from_bytes(rng.bytes(max(1, nbits >> 3)), "little")
    return raw & ((1 << nbits) - 1)


def backend_with(ways, *values):
    """A dense register file holding ``values`` in registers 0, 1, ..."""
    qat = DenseQatBackend(ways)
    for reg, value in enumerate(values):
        qat.write(reg, AoB(ways, value))
    return qat


class TestTopBitInvariant:
    """No gate may set a bit at or above the register width."""

    @pytest.mark.parametrize("ways", [0, 1, 3, 5, 6, 7])
    def test_not_masks_top(self, ways, rng):
        nbits = 1 << ways
        qat = backend_with(ways, random_value(rng, ways))
        qat.invert(0)
        assert qat.regs[0] >> nbits == 0
        assert (~qat.read(0)).to_int() >> nbits == 0

    @pytest.mark.parametrize("ways", [0, 1, 3, 5, 6, 7])
    def test_one_masks_top(self, ways):
        nbits = 1 << ways
        qat = DenseQatBackend(ways)
        qat.one(0)
        assert qat.regs[0] >> nbits == 0
        assert qat.read(0).popcount() == nbits
        assert AoB.ones(ways) == qat.read(0)

    def test_not_in_place_aliasing(self, rng):
        """Gates whose destination is also a source read it first."""
        a, b = random_value(rng, 8), random_value(rng, 8)
        qat = backend_with(8, a, b)
        qat.invert(0)
        assert qat.read(0) == ~AoB(8, a)
        qat.binary("xor", 1, 1, 0)
        assert qat.read(1) == AoB(8, b) ^ ~AoB(8, a)
        qat.binary("xor", 1, 1, 1)
        assert qat.regs[1] == 0


class TestSwapKernels:
    def test_swap_exchanges(self, rng):
        a, b = random_value(rng, 7), random_value(rng, 7)
        qat = backend_with(7, a, b)
        qat.swap(0, 1)
        assert qat.regs[:2] == [b, a]

    def test_cswap_masked(self, rng):
        a, b, ctrl = (random_value(rng, 7) for _ in range(3))
        qat = backend_with(7, a, b, ctrl)
        qat.cswap(0, 1, 2)
        mask = (1 << 128) - 1
        assert qat.regs[0] == (a & ~ctrl & mask) | (b & ctrl)
        assert qat.regs[1] == (b & ~ctrl & mask) | (a & ctrl)
        # billiard-ball conservancy: no bit is created or destroyed
        assert (qat.regs[0].bit_count() + qat.regs[1].bit_count()
                == a.bit_count() + b.bit_count())
        assert AoB(7, a).cswap(AoB(7, b), AoB(7, ctrl)) == \
            (qat.read(0), qat.read(1))


class TestMeasKernels:
    @given(st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_meas_hadamard(self, channel):
        qat = DenseQatBackend(16)
        qat.had(0, 7)
        assert qat.meas(0, channel) == (channel >> 7) & 1
        assert AoB.hadamard(16, 7).meas(channel) == (channel >> 7) & 1

    def test_next_spanning_words(self):
        """A 1 several words past the start channel is still found."""
        bits = np.zeros(512, dtype=np.uint8)
        bits[300] = 1
        qat = DenseQatBackend(9)
        qat.write(0, AoB.from_bits(bits))
        assert qat.next(0, 5) == 300
        assert AoB.from_bits(bits).next(5) == 300

    def test_next_in_same_word(self):
        bits = np.zeros(512, dtype=np.uint8)
        bits[7] = 1
        qat = DenseQatBackend(9)
        qat.write(0, AoB.from_bits(bits))
        assert qat.next(0, 5) == 7
        assert qat.next(0, 7) == 0
        assert qat.next(0, 511) == 0

    def test_pop_after_boundaries(self):
        qat = DenseQatBackend(9)
        qat.one(0)
        assert qat.pop_after(0, 0) == 511
        assert qat.pop_after(0, 510) == 1
        assert qat.pop_after(0, 511) == 0
        assert qat.pop_after(0, 100000) == 0
        assert AoB.ones(9).pop_after(100000) == 0

    def test_all_on_partial_word(self):
        assert AoB.ones(3).all()
        assert not AoB.hadamard(3, 0).all()

    def test_all_on_multi_word(self):
        assert AoB.ones(8).all()
        almost = AoB.ones(8).to_bool_array()
        almost[100] = False
        assert not AoB.from_bits(almost.astype(int)).all()

    def test_any_empty_vs_one_bit(self):
        assert not AoB.zeros(10).any()
        bits = np.zeros(1024, dtype=np.uint8)
        bits[1023] = 1
        assert AoB.from_bits(bits).any()
