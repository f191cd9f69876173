"""The int chunk store against dense AoB arithmetic on the same bits.

:class:`~repro.pattern.ChunkStore` holds symbols as Python ints and
:class:`~repro.pattern.PatternVector` reads them as ints; every store op
and every vector readout must equal what the numpy-backed
:class:`~repro.aob.AoB` computes on the same channels, at every chunk
width the RE backend uses.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aob import AoB
from repro.faults import flip_chunk_bit
from repro.pattern import ChunkStore, PatternVector

CHUNK_WAYS = (6, 7, 8, 10, 12)


@st.composite
def chunk_values(draw, chunk_ways: int, min_size: int = 1, max_size: int = 5):
    """Chunk payloads as ints, biased toward the constants and edge bits."""
    bits = 1 << chunk_ways
    top = (1 << bits) - 1
    value = st.one_of(
        st.integers(0, top),
        st.sampled_from([0, top, 1, 1 << (bits - 1), top ^ 1]),
    )
    return draw(st.lists(value, min_size=min_size, max_size=max_size))


def _dense_first_one(chunk: AoB) -> int:
    return next(iter(chunk.iter_ones()), -1)


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_store_ops_match_dense(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    dense = [AoB.from_int(chunk_ways, v)
             for v in data.draw(chunk_values(chunk_ways, min_size=2))]
    syms = [store.intern(chunk) for chunk in dense]
    for chunk, sym in zip(dense, syms):
        assert store.chunk(sym) == chunk
        assert store.chunk(store.intern(chunk)) == chunk
        assert store.chunk_int(sym) == chunk.to_int()
        assert store.chunk(store.bnot(sym)) == ~chunk
        assert store.popcount(sym) == chunk.popcount()
        assert store.first_one(sym) == _dense_first_one(chunk)
    for (a, sa), (b, sb) in zip(zip(dense, syms), zip(dense[1:], syms[1:])):
        assert store.chunk(store.binop("and", sa, sb)) == a & b
        assert store.chunk(store.binop("or", sa, sb)) == a | b
        assert store.chunk(store.binop("xor", sa, sb)) == a ^ b
    assert store.chunk(store.zero_id) == AoB.zeros(chunk_ways)
    assert store.chunk(store.one_id) == AoB.ones(chunk_ways)


def _vector(data, store: ChunkStore, extra: int) -> tuple[PatternVector, AoB]:
    """A ``chunk_ways + extra``-way vector whose chunks repeat a small
    pool (so runs form), and its dense expansion."""
    cw = store.chunk_ways
    pool = data.draw(chunk_values(cw, max_size=3))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1 << extra,
                               max_size=1 << extra))
    value = 0
    for i, chunk in enumerate(picks):
        value |= chunk << (i << cw)
    dense = AoB.from_int(cw + extra, value)
    return PatternVector.from_aob(dense, store=store), dense


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_vector_ops_match_dense(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    extra = data.draw(st.integers(0, 3), label="extra ways")
    pv, dense = _vector(data, store, extra)
    other, dense_other = _vector(data, store, extra)
    assert pv.to_aob() == dense
    assert PatternVector.from_aob(pv.to_aob(), store=store) == pv
    assert (pv & other).to_aob() == dense & dense_other
    assert (pv | other).to_aob() == dense | dense_other
    assert (pv ^ other).to_aob() == dense ^ dense_other
    assert (~pv).to_aob() == ~dense
    assert pv.popcount() == dense.popcount()
    nbits = dense.nbits
    chunk_bits = 1 << chunk_ways
    edges = [0, nbits - 1, chunk_bits - 1, chunk_bits % nbits,
             (chunk_bits + 1) % nbits]
    channels = edges + data.draw(
        st.lists(st.integers(0, nbits - 1), max_size=6), label="channels")
    for channel in channels:
        assert pv.meas(channel) == dense.meas(channel)
        assert pv.next(channel) == dense.next(channel)
        assert pv.pop_after(channel) == dense.pop_after(channel)
        flipped = dense.to_int() ^ (1 << channel)
        assert pv.with_flipped_bit(channel).to_aob() == \
            AoB.from_int(dense.ways, flipped)


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
def test_every_single_bit_flip_is_detected(chunk_ways):
    """The per-symbol ``hash()`` digest changes under any one-bit flip."""
    store = ChunkStore(chunk_ways)
    sym = store.hadamard(1)
    for bit in range(store.chunk_bits):
        flip_chunk_bit(store, sym, bit)
        store.chunk_int_safe(sym)  # detect and adopt the flipped value
        assert store.degraded == bit + 1
