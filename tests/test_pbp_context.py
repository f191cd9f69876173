"""PbpContext: backend selection and entanglement-channel bookkeeping."""

import pytest

from repro.aob import AoB
from repro.errors import ChannelExhaustedError, EntanglementError
from repro.pattern import PatternVector
from repro.pbp import PbpContext


class TestBackendSelection:
    def test_auto_dense_up_to_16(self):
        assert PbpContext(ways=8).backend == "aob"
        assert PbpContext(ways=16).backend == "aob"

    def test_auto_pattern_beyond_16(self):
        assert PbpContext(ways=17).backend == "pattern"

    def test_explicit_pattern(self):
        ctx = PbpContext(ways=10, backend="pattern", chunk_ways=8)
        assert isinstance(ctx.const(0), PatternVector)

    def test_explicit_aob(self):
        ctx = PbpContext(ways=10, backend="aob")
        assert isinstance(ctx.const(0), AoB)

    def test_bad_backend(self):
        with pytest.raises(ValueError):
            PbpContext(ways=4, backend="quantum")

    def test_dense_too_wide(self):
        with pytest.raises(EntanglementError):
            PbpContext(ways=30, backend="aob")

    def test_pattern_chunk_default_capped_at_ways(self):
        ctx = PbpContext(ways=10, backend="pattern")
        assert ctx.store.chunk_ways == 10

    @pytest.mark.parametrize("ways, chunk_ways, top", [
        (8, 2, 8), (8, 5, 8), (8, 9, 8), (30, 27, 26), (4, None, 4)])
    def test_pattern_chunk_width_out_of_range(self, ways, chunk_ways, top):
        """Refused at construction, naming the range, not at the first
        vector."""
        with pytest.raises(EntanglementError,
                           match=rf"chunk_ways must be in \[6, {top}\]"):
            PbpContext(ways=ways, backend="pattern", chunk_ways=chunk_ways)

    @pytest.mark.parametrize("ways, chunk_ways", [(8, 6), (8, 8), (30, 26)])
    def test_pattern_chunk_width_at_the_bounds(self, ways, chunk_ways):
        ctx = PbpContext(ways=ways, backend="pattern", chunk_ways=chunk_ways)
        assert ctx.const(1).meas(5) == 1

    def test_negative_ways(self):
        with pytest.raises(EntanglementError):
            PbpContext(ways=-1)


class TestChannelAllocation:
    def test_pint_h_claims_channels(self):
        ctx = PbpContext(ways=8)
        ctx.pint_h(4, 0x0F)
        assert ctx.used_channel_mask == 0x0F

    def test_overlapping_claim_rejected(self):
        """Reusing channel sets computes squares, not products -- the
        context refuses to allow it silently (section 4.1 caution)."""
        ctx = PbpContext(ways=8)
        ctx.pint_h(4, 0x0F)
        with pytest.raises(EntanglementError):
            ctx.pint_h(4, 0x1E)

    def test_disjoint_claims_ok(self):
        ctx = PbpContext(ways=8)
        ctx.pint_h(4, 0x0F)
        ctx.pint_h(4, 0xF0)
        assert ctx.used_channel_mask == 0xFF

    def test_mask_width_must_match(self):
        ctx = PbpContext(ways=8)
        with pytest.raises(EntanglementError):
            ctx.pint_h(3, 0x0F)

    def test_mask_beyond_ways_rejected(self):
        ctx = PbpContext(ways=4)
        with pytest.raises(EntanglementError):
            ctx.pint_h(1, 1 << 5)

    def test_fresh_allocates_lowest(self):
        ctx = PbpContext(ways=8)
        a = ctx.pint_h_fresh(3)
        b = ctx.pint_h_fresh(2)
        assert a.channels == 0b00111
        assert b.channels == 0b11000

    def test_fresh_exhaustion(self):
        ctx = PbpContext(ways=4)
        ctx.pint_h_fresh(3)
        with pytest.raises(ChannelExhaustedError):
            ctx.pint_h_fresh(2)

    def test_fresh_skips_claimed(self):
        ctx = PbpContext(ways=6)
        ctx.pint_h(2, 0b000110)
        p = ctx.pint_h_fresh(2)
        assert p.channels == 0b001001


class TestPintConstructors:
    def test_pint_mk_constant(self):
        ctx = PbpContext(ways=4)
        p = ctx.pint_mk(4, 9)
        assert p.measure() == [9]

    def test_pint_mk_rejects_oversized(self):
        ctx = PbpContext(ways=4)
        with pytest.raises(ValueError):
            ctx.pint_mk(3, 8)

    def test_pint_mk_rejects_zero_width(self):
        ctx = PbpContext(ways=4)
        with pytest.raises(ValueError):
            ctx.pint_mk(0, 0)

    def test_pint_h_uniform(self):
        ctx = PbpContext(ways=4)
        p = ctx.pint_h(4, 0xF)
        assert p.measure() == list(range(16))

    def test_const_and_had_helpers(self):
        ctx = PbpContext(ways=4)
        assert ctx.const(1) == AoB.ones(4)
        assert ctx.had(2) == AoB.hadamard(4, 2)

    def test_repr(self):
        assert "ways=8" in repr(PbpContext(ways=8))
