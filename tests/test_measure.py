"""Measurement layer: distributions, values_where, and the S27
reductions built from meas/next."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MeasurementError
from repro.pbp import PbpContext
from repro.pbp.measure import measure_distribution, values_where


class TestDenseDistribution:
    def test_counts_sum_to_channels(self):
        ctx = PbpContext(ways=8)
        a = ctx.pint_h(4, 0x0F)
        b = ctx.pint_h(4, 0xF0)
        counts = measure_distribution(a * b)
        assert sum(counts.values()) == 256

    def test_product_distribution_matches_bruteforce(self):
        ctx = PbpContext(ways=6)
        a = ctx.pint_h(3, 0b000111)
        b = ctx.pint_h(3, 0b111000)
        counts = measure_distribution(a * b)
        brute = {}
        for x in range(8):
            for y in range(8):
                brute[x * y] = brute.get(x * y, 0) + 1
        assert dict(counts) == brute

    def test_measure_is_sorted_distinct(self):
        ctx = PbpContext(ways=4)
        p = ctx.pint_h(4, 0xF)
        assert p.measure() == sorted(set(p.measure()))

    def test_nondestructive(self):
        """Measuring twice gives identical results -- no collapse."""
        ctx = PbpContext(ways=6)
        a = ctx.pint_h(3, 0b000111)
        b = ctx.pint_h(3, 0b111000)
        p = a * b
        first = p.counts()
        second = p.counts()
        assert first == second
        # and the value still composes with further computation
        assert (p + ctx.pint_mk(6, 1)).counts()[1] >= 1

    def test_sample_values_are_legal(self, rng):
        ctx = PbpContext(ways=6)
        a = ctx.pint_h(3, 0b000111)
        b = ctx.pint_h(3, 0b111000)
        p = a * b
        legal = set(p.measure())
        for value in p.sample(rng, 50):
            assert int(value) in legal

    def test_width_cap(self):
        ctx = PbpContext(ways=2)
        p = ctx.pint_mk(1, 0).resized(40)
        with pytest.raises(MeasurementError):
            measure_distribution(p)


class TestPatternDistribution:
    def test_matches_dense(self):
        dense = PbpContext(ways=8, backend="aob")
        compressed = PbpContext(ways=8, backend="pattern", chunk_ways=6)
        counts = []
        for ctx in (dense, compressed):
            a = ctx.pint_h(4, 0x0F)
            b = ctx.pint_h(4, 0xF0)
            counts.append(dict(measure_distribution(a * b)))
        assert counts[0] == counts[1]

    def test_regular_patterns_measured_symbolically(self):
        """A 2^18-channel Hadamard word is measured without expanding."""
        ctx = PbpContext(ways=18, backend="pattern", chunk_ways=8)
        p = ctx.pint_h(4, 0xF << 14)  # top channels: long runs
        counts = measure_distribution(p)
        assert sum(counts.values()) == 1 << 18
        assert len(counts) == 16

    @pytest.mark.parametrize("width", [3, 4, 5, 12])
    def test_split_and_dense_counts_agree(self, width):
        """Splitting channel masks (up to 16 values) and the numpy pass
        past it count the same values: under, at and over the limit."""
        from repro.pbp.measure import (_SPLIT_LIMIT, _dense_value_counts,
                                       _value_counts)

        assert _SPLIT_LIMIT == 1 << 4

        rng = np.random.default_rng(width)
        nbits = 1 << 12
        values = [int.from_bytes(rng.bytes(nbits >> 3), "little")
                  for _ in range(width)]
        assert _value_counts(values, nbits) == _dense_value_counts(values,
                                                                   nbits)

    def test_mixed_store_rejected(self):
        from repro.pattern import ChunkStore, PatternVector
        from repro.pbp.pint import Pint

        ctx = PbpContext(ways=8, backend="pattern", chunk_ways=6)
        alien = PatternVector.zeros(8, ChunkStore(6))
        p = Pint(ctx, (ctx.const(0), alien))
        with pytest.raises(MeasurementError):
            measure_distribution(p)


class TestValuesWhere:
    def test_filters_by_condition(self):
        ctx = PbpContext(ways=6)
        a = ctx.pint_h(3, 0b000111)
        b = ctx.pint_h(3, 0b111000)
        cond = (a * b).eq_const(12)
        assert values_where(a, cond) == [2, 3, 4, 6]  # factors of 12 < 8

    def test_accepts_width_one_pint(self):
        ctx = PbpContext(ways=4)
        a = ctx.pint_h(4, 0xF)
        cond = a.eq_const(7)
        assert values_where(a, cond) == [7]

    def test_rejects_wide_condition(self):
        ctx = PbpContext(ways=4)
        a = ctx.pint_h(4, 0xF)
        with pytest.raises(MeasurementError):
            values_where(a, a)


class TestS27Reductions:
    """Section 2.7: ANY/ALL built from next + meas; pop splits POP."""

    def _any_via_next(self, pbit):
        """ANY as the paper describes: next after 0, plus a meas of 0."""
        if pbit.next(0) != 0:
            return True
        return bool(pbit.meas(0))

    def _all_via_next(self, pbit):
        """ALL of @a == NOT(ANY(NOT @a))."""
        return not self._any_via_next(~pbit)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=16, max_size=16))
    def test_any_matches(self, bits):
        from repro.aob import AoB

        a = AoB.from_bits(bits)
        assert self._any_via_next(a) == a.any() == any(bits)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=16, max_size=16))
    def test_all_matches(self, bits):
        from repro.aob import AoB

        a = AoB.from_bits(bits)
        assert self._all_via_next(a) == a.all() == all(bits)

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=32, max_size=32))
    def test_pop_split(self, bits):
        """True POP = pop after 0 + meas of channel 0 (section 2.7)."""
        from repro.aob import AoB

        a = AoB.from_bits(bits)
        assert a.pop_after(0) + a.meas(0) == sum(bits)

    def test_full_pop_overflow_case(self):
        """The full 16-way POP can be 65,536 -- one more than fits in a
        16-bit register, which is why the instruction splits."""
        from repro.aob import AoB

        a = AoB.ones(16)
        assert a.pop_after(0) + a.meas(0) == 65536
        assert a.pop_after(0) == 65535  # each piece fits in 16 bits

    def test_meas_enumeration_matches_next_walk(self, rng):
        """meas over all channels finds the same ones as the next walk --
        the O(2^E) vs O(ones) contrast of section 2.7."""
        from repro.aob import AoB

        a = AoB.random(10, rng, p=0.02)
        via_meas = [e for e in range(1024) if a.meas(e)]
        assert via_meas == list(a.iter_ones())
