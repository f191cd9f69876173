"""The int chunk store against a bool-array model of the same bits.

:class:`~repro.pattern.ChunkStore` holds symbols as Python ints and
:class:`~repro.pattern.PatternVector` reads them as ints; every store op
and every vector readout must equal what a test-local numpy bool-array
model (one bool per channel, as in ``tests/test_aob.py``) computes on
the same channels, at every chunk width the RE backend uses.  The model
shares no code with the int substrate, so ints are never checked
against ints.
"""

from __future__ import annotations

import numpy as np
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


def _model(value: int, nbits: int) -> np.ndarray:
    """The bool-array model of ``nbits`` channels: channel ``e`` = bit ``e``."""
    return np.array([(value >> e) & 1 for e in range(nbits)], dtype=bool)


def _same(aob: AoB, model: np.ndarray) -> bool:
    return np.array_equal(aob.to_bool_array(), model)


def _first_one(model: np.ndarray) -> int:
    ones = np.flatnonzero(model)
    return int(ones[0]) if ones.size else -1


def _next(model: np.ndarray, channel: int) -> int:
    ones = np.flatnonzero(model)
    after = ones[ones > channel]
    return int(after[0]) if after.size else 0


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_store_ops_match_dense(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    bits = 1 << chunk_ways
    values = data.draw(chunk_values(chunk_ways, min_size=2))
    models = [_model(v, bits) for v in values]
    syms = [store.intern(AoB(chunk_ways, v)) for v in values]
    for value, model, sym in zip(values, models, syms):
        assert _same(store.chunk(sym), model)
        assert store.intern(store.chunk(sym)) == sym
        assert store.chunk_int(sym) == value
        assert _same(store.chunk(store.bnot(sym)), ~model)
        assert store.popcount(sym) == int(model.sum())
        assert store.first_one(sym) == _first_one(model)
    for (a, sa), (b, sb) in zip(zip(models, syms), zip(models[1:], syms[1:])):
        assert _same(store.chunk(store.binop("and", sa, sb)), a & b)
        assert _same(store.chunk(store.binop("or", sa, sb)), a | b)
        assert _same(store.chunk(store.binop("xor", sa, sb)), a ^ b)
    assert not _model(store.chunk_int(store.zero_id), bits).any()
    assert _model(store.chunk_int(store.one_id), bits).all()


def _vector(data, store: ChunkStore, extra: int) -> tuple[PatternVector, np.ndarray]:
    """A ``chunk_ways + extra``-way vector whose chunks repeat a small
    pool (so runs form), and its bool-array model."""
    cw = store.chunk_ways
    pool = data.draw(chunk_values(cw, max_size=3))
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1 << extra,
                               max_size=1 << extra))
    model = np.concatenate([_model(chunk, 1 << cw) for chunk in picks])
    value = 0
    for i, chunk in enumerate(picks):
        value |= chunk << (i << cw)
    return PatternVector.from_aob(AoB(cw + extra, value), store=store), model


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_vector_ops_match_dense(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    extra = data.draw(st.integers(0, 3), label="extra ways")
    pv, model = _vector(data, store, extra)
    other, model_other = _vector(data, store, extra)
    assert _same(pv.to_aob(), model)
    assert PatternVector.from_aob(pv.to_aob(), store=store) == pv
    assert _same((pv & other).to_aob(), model & model_other)
    assert _same((pv | other).to_aob(), model | model_other)
    assert _same((pv ^ other).to_aob(), model ^ model_other)
    assert _same((~pv).to_aob(), ~model)
    assert pv.popcount() == int(model.sum())
    nbits = model.size
    chunk_bits = 1 << chunk_ways
    edges = [0, nbits - 1, chunk_bits - 1, chunk_bits % nbits,
             (chunk_bits + 1) % nbits]
    channels = edges + data.draw(
        st.lists(st.integers(0, nbits - 1), max_size=6), label="channels")
    for channel in channels:
        assert pv.meas(channel) == int(model[channel])
        assert pv.next(channel) == _next(model, channel)
        assert pv.pop_after(channel) == int(model[channel + 1:].sum())
        flipped = model.copy()
        flipped[channel] = not flipped[channel]
        assert _same(pv.with_flipped_bit(channel).to_aob(), flipped)


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
def test_every_single_bit_flip_is_detected(chunk_ways):
    """The per-symbol ``hash()`` digest changes under any one-bit flip."""
    store = ChunkStore(chunk_ways)
    sym = store.hadamard(1)
    for bit in range(store.chunk_bits):
        flip_chunk_bit(store, sym, bit)
        store.chunk_int_safe(sym)  # detect and adopt the flipped value
        assert store.degraded == bit + 1
