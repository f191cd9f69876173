"""Segment-compressed vectors against dense AoB, around the literal blocks.

A :class:`~repro.pattern.PatternVector` packs each aligned block of
chunks that are not all equal into one int (a literal) and keeps uniform
blocks as repeats.  The vectors here are built from run lists that put
stretches of distinct chunks under, at and over the block size next to
long repeats, meeting them at chunk boundaries a block does not align
to, on 6-, 8- and 10-way chunks.  Every gate and readout must equal the
dense :class:`~repro.aob.AoB` of the same bits, every result must be in
the canonical form, and equal values reached by different gate sequences
must compare and hash alike.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aob import AoB
from repro.asm import assemble
from repro.cpu.functional import FunctionalSimulator
from repro.cpu.qat_backend import REQatBackend
from repro.errors import EntanglementError
from repro.faults.checkpoint import Checkpoint
from repro.pattern import ChunkStore, PatternVector
from repro.pbp import PbpContext
from repro.pattern.vector import LITERAL_BITS

CHUNK_WAYS = (6, 8, 10)
#: Four blocks of :data:`LITERAL_BITS` bits at each of those chunk widths.
WAYS = 18


def _block(chunk_ways: int) -> int:
    return min(LITERAL_BITS >> chunk_ways, 1 << (WAYS - chunk_ways - 1))


@st.composite
def run_lists(draw, chunk_ways: int):
    """``(chunk, count)`` runs covering a ``WAYS``-way vector: stretches
    of distinct chunks and repeats, with lengths around the block size."""
    cap = _block(chunk_ways)
    left = 1 << (WAYS - chunk_ways)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    top = (1 << (1 << chunk_ways)) - 1
    # Chunks that recur, so gates meet equal chunks and uniform blocks.
    pool = [0, top, rng.getrandbits(1 << chunk_ways), 1 << 5]
    lengths = st.sampled_from((1, 2, 3, cap - 1, cap, cap + 1, 2 * cap + 3))
    runs, prev = [], None
    for last in range(draw(st.integers(1, 6)), -1, -1):
        length = min(left, draw(lengths | st.integers(1, 2 * cap)))
        if not last:  # a repeat covers what is left
            length = left
        if last and draw(st.booleans()):  # a stretch of distinct chunks
            for _ in range(length):
                chunk = prev
                while chunk == prev:
                    chunk = (rng.choice(pool) if rng.random() < 0.2
                             else rng.getrandbits(1 << chunk_ways))
                runs.append((chunk, 1))
                prev = chunk
        elif length:  # a repeat
            chunk = rng.choice(pool)
            runs.append((chunk, length))
            prev = chunk
        left -= length
    return runs


def _dense(runs, chunk_ways: int) -> AoB:
    step = (1 << chunk_ways) >> 3
    raw = b"".join(chunk.to_bytes(step, "little") * count
                   for chunk, count in runs)
    return AoB(WAYS, int.from_bytes(raw, "little"))


def _vectors(data, store: ChunkStore, count: int):
    out = []
    for _ in range(count):
        runs = data.draw(run_lists(store.chunk_ways))
        out.append((PatternVector(WAYS, runs, store),
                    _dense(runs, store.chunk_ways)))
    return out


def _assert_canonical(pv: PatternVector) -> None:
    """Repeats cover whole blocks and never neighbour a repeat of the
    same chunk; a literal is one block whose chunks are not all equal."""
    store = pv.store
    cb, block = store.chunk_bits, _block(store.chunk_ways)
    step = cb >> 3
    previous = None
    for value, n in pv.segments:
        if n > 0:
            assert n % block == 0 and value != previous
            assert value >> cb == 0
            previous = value
        else:
            assert n == -block and value >> (block * cb) == 0
            raw = value.to_bytes(block * step, "little")
            assert len({raw[i:i + step] for i in range(0, len(raw), step)}) > 1
            previous = None
    assert sum(abs(n) for _, n in pv.segments) == pv.num_chunks
    runs = pv.runs
    assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))
    # The same value reached another way has the same segments.
    again = PatternVector.from_aob(pv.to_aob(), store=store)
    assert again == pv and hash(again) == hash(pv)
    assert PatternVector(pv.ways, runs, store).segments == pv.segments


def _channels(data, chunk_ways: int, runs=None) -> list[int]:
    """Channels to read or flip: random ones, and both sides of every
    block boundary and of the first runs' boundaries."""
    nbits, cb = 1 << WAYS, 1 << chunk_ways
    edges = [i * _block(chunk_ways) * cb for i in range(1, 4)]
    if runs:
        at = 0
        for _, count in runs[:6]:
            at += count * cb
            edges.append(at)
    near = [c + d for c in edges for d in (-1, 0, 1) if 0 <= c + d < nbits]
    return data.draw(st.lists(st.sampled_from(near)
                              | st.integers(0, nbits - 1),
                              min_size=1, max_size=6))


@settings(max_examples=25)
@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_gates_match_dense(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    (a, da), (b, db), (c, dc) = _vectors(data, store, 3)
    x, y = a.cswap(b, c)
    dx, dy = da.cswap(db, dc)
    for pv, dense in ((a & b, da & db), (a | b, da | db), (a ^ b, da ^ db),
                      (~a, ~da), (a.cnot(b), da.cnot(db)),
                      (a.ccnot(b, c), da.ccnot(db, dc)), (x, dx), (y, dy)):
        assert pv.to_aob() == dense
        _assert_canonical(pv)


@settings(max_examples=25)
@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_readouts_match_dense(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    runs = data.draw(run_lists(chunk_ways))
    pv, dense = PatternVector(WAYS, runs, store), _dense(runs, chunk_ways)
    _assert_canonical(pv)
    assert pv.to_aob() == dense
    assert PatternVector.from_aob(dense, store=store) == pv
    assert pv.popcount() == dense.popcount()
    assert (pv.any(), pv.all()) == (dense.any(), dense.all())
    for channel in _channels(data, chunk_ways, runs):
        assert pv.meas(channel) == dense.meas(channel)
        assert pv.next(channel) == dense.next(channel)
        assert pv.pop_after(channel) == dense.pop_after(channel)


@settings(max_examples=25)
@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_flips_match_dense(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    runs = data.draw(run_lists(chunk_ways))
    pv, dense = PatternVector(WAYS, runs, store), _dense(runs, chunk_ways)
    for channel in _channels(data, chunk_ways, runs):
        flipped = pv.with_flipped_bit(channel)
        assert flipped.to_aob() == AoB(WAYS, dense.to_int() ^ (1 << channel))
        _assert_canonical(flipped)
        assert flipped.with_flipped_bit(channel) == pv
    assert pv.to_aob() == dense  # copy-on-write


@settings(max_examples=25)
@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
@given(data=st.data())
def test_equal_values_have_equal_segments(chunk_ways, data):
    store = ChunkStore(chunk_ways)
    (a, _), (b, _) = _vectors(data, store, 2)
    zeros = PatternVector.zeros(WAYS, store)
    for left, right in (((a ^ b) ^ b, a), ((a & b) | (a & ~b), a),
                        (~(~a | ~b), a & b), (a ^ a, zeros),
                        ((a | b) ^ (a & b), a ^ b), (~~a, a)):
        assert left == right and hash(left) == hash(right)
        assert left.segments == right.segments


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
def test_literal_meets_long_repeat_off_block_boundary(chunk_ways):
    """A stretch of distinct chunks one past a block, then one repeat
    for the rest: the block holding the boundary is a literal, the
    blocks after it one repeat."""
    store = ChunkStore(chunk_ways)
    block, nchunks = _block(chunk_ways), 1 << (WAYS - chunk_ways)
    rng = random.Random(chunk_ways)
    stretch = [(rng.getrandbits(1 << chunk_ways) | 1, 1)
               for _ in range(block + 1)]
    runs = stretch + [(0, nchunks - block - 1)]
    pv = PatternVector(WAYS, runs, store)
    assert [n for _, n in pv.segments] == [-block, -block,
                                           nchunks - 2 * block]
    dense = _dense(runs, chunk_ways)
    ones = PatternVector.ones(WAYS, store)
    for result, expected in ((pv & ones, dense), (pv ^ ones, ~dense),
                             (pv | ones, ~AoB.zeros(WAYS))):
        assert result.to_aob() == expected
        _assert_canonical(result)
    edge = (block + 1) << chunk_ways  # first channel of the repeat
    assert pv.next(edge - 1) == dense.next(edge - 1) == 0
    assert pv.pop_after(edge - 2) == dense.pop_after(edge - 2)


@pytest.mark.parametrize("chunk_ways", CHUNK_WAYS)
def test_flip_that_evens_a_block_joins_the_repeats(chunk_ways):
    """A block that differs from its neighbours in one bit is a literal;
    flipping that bit back leaves one repeat."""
    store = ChunkStore(chunk_ways)
    nchunks = 1 << (WAYS - chunk_ways)
    odd = _block(chunk_ways) + 2
    runs = ((5, odd), (4, 1), (5, nchunks - odd - 1))
    pv = PatternVector(WAYS, runs, store)
    assert len(pv.segments) == 3
    even = pv.with_flipped_bit(odd << chunk_ways)
    assert even.segments == ((5, nchunks),)


def test_narrowest_chunks_hold_literals():
    """On the narrowest chunks a vector accepts (6-way: one word), a
    literal expands through every reader of ``runs``; narrower chunks,
    which a store accepts, are rejected by every vector constructor."""
    ctx = PbpContext(ways=8, backend="pattern", chunk_ways=6)
    pv = ctx.pint_h(1, 1 << 6).bits[0]  # H(6): runs of one chunk
    assert [n for _, n in pv.segments] == [-2, -2]
    zero, one = ctx.store.zero_id, ctx.store.one_id
    assert pv.runs == ((zero, 1), (one, 1), (zero, 1), (one, 1))
    assert PatternVector(8, pv.runs, ctx.store) == pv
    assert (pv.storage_chunks(), pv.compression_ratio()) == (2, 1.0)
    assert repr(pv).endswith("runs=[0x0 0x...ffffffff 0x0 0x...ffffffff])")
    assert PatternVector.from_aob(pv.to_aob(), store=ctx.store) == pv
    sim = FunctionalSimulator(ways=8, qat_backend=REQatBackend(
        8, chunk_ways=6))
    sim.load(assemble("had @3, 6\nlex $rv, 0\nsys\n"))
    sim.run(100)
    ckpt = Checkpoint.take(sim.machine)
    assert [int.from_bytes(w.tobytes(), "little")
            for w in ckpt.store_chunks] == [zero, one]
    for chunk_ways in range(6):
        store = ChunkStore(chunk_ways)
        for build in (lambda: PatternVector(8, ((0, 1 << (8 - chunk_ways)),),
                                            store),
                      lambda: PatternVector.zeros(8, store),
                      lambda: PatternVector.hadamard(8, 0, store),
                      lambda: PatternVector.from_aob(AoB.zeros(8),
                                                     store=store)):
            with pytest.raises(EntanglementError):
                build()
