"""Non-destructive measurement of pattern integers.

The paper stresses (section 2.7) that PBP measurement returns *all* values
in an entangled superposition without collapsing it.  This module provides
the whole-distribution readout:

- for the dense AoB backend, one numpy pass over all :math:`2^E`
  channels, and
- for the pattern backend, a joint segment walk across the word's pbits
  that counts each *distinct tuple of repeated chunks* once (memoized)
  and each span under a literal as a whole, so perfectly regular
  superpositions are measured in time independent of :math:`2^E` -- the
  same symbolic-computation win the RE representation gives gate
  operations.
"""

from __future__ import annotations

from collections import Counter

from repro.aob import AoB
from repro.errors import MeasurementError
from repro.pattern import PatternVector
from repro.pattern.vector import repeat_chunk
from repro.pbp.pint import Pint

_MAX_WIDTH = 32  # assembled values are held in uint32 lanes
#: Distinct values up to which a pattern span is counted by splitting
#: channel masks; past them, by one numpy pass.  At 16 values the split
#: takes at most 0.7x the numpy pass's time and less of its memory, from
#: 2^12 to 2^22 channels and 8 to 24 pbits; at 32 the two tie
#: (``docs/PERFORMANCE.md``, "Counting values").
_SPLIT_LIMIT = 16


def _value_counts(values: list[int], nbits: int) -> dict[int, int]:
    """Counts of assembled values over pbits held as ``nbits``-bit ints
    (channel ``e`` = bit ``e``; bit ``i`` of a channel's value is pbit
    ``i``).

    The channels are split by each pbit in turn into one mask per value
    seen so far, two big-int ops per value and pbit and no numpy.  Past
    :data:`_SPLIT_LIMIT` values the count is made by
    :func:`_dense_value_counts` instead; the split abandoned then cost
    less than that pass.
    """
    groups = [(0, (1 << nbits) - 1)]
    for i, bit in enumerate(values):
        split = []
        for value, mask in groups:
            ones = mask & bit
            if ones:
                split.append((value | 1 << i, ones))
            if ones != mask:
                split.append((value, mask ^ ones))
        if len(split) > _SPLIT_LIMIT:
            return _dense_value_counts(values, nbits)
        groups = split
    return {value: mask.bit_count() for value, mask in groups}


def _dense_value_counts(values: list[int], nbits: int) -> dict[int, int]:
    """Counts of assembled values over pbits held as ``nbits``-bit ints
    (channel ``e`` = bit ``e``), by one numpy pass over every channel.

    Bit ``i`` of a channel's value is pbit ``i``; the values are built and
    sorted in place, so the only temporaries besides them are one pbit's
    bits and the run-start mask (about half the memory of ``np.unique``
    and 0.65-1x its time).
    """
    import numpy as np

    acc = np.zeros(nbits, dtype=np.uint32)
    nbytes = max(1, nbits >> 3)
    for value in reversed(values):
        raw = np.frombuffer(value.to_bytes(nbytes, "little"), dtype=np.uint8)
        np.left_shift(acc, 1, out=acc)
        acc |= np.unpackbits(raw, bitorder="little")[:nbits]
    acc.sort()
    starts = np.empty(nbits, dtype=bool)
    starts[0] = True
    np.not_equal(acc[1:], acc[:-1], out=starts[1:])
    first = np.flatnonzero(starts)
    counts = np.diff(first, append=nbits)
    return dict(zip(acc[first].tolist(), counts.tolist()))


def measure_distribution(pint: Pint) -> Counter[int]:
    """Channel count per distinct value of ``pint`` (non-destructive).

    The sum of the counts is always :math:`2^{ways}`: every entanglement
    channel holds exactly one value.
    """
    if pint.width > _MAX_WIDTH:
        raise MeasurementError(
            f"measurement supports up to {_MAX_WIDTH}-bit pints, got {pint.width}"
        )
    first = pint.bits[0]
    if isinstance(first, AoB):
        return Counter(_dense_value_counts([b.to_int() for b in pint.bits],
                                           first.nbits))
    if isinstance(first, PatternVector):
        return _pattern_distribution(list(pint.bits))
    raise MeasurementError(
        f"unsupported pbit type {type(first).__name__} (a trace context "
        "records gates but holds no data: compile and run it instead)"
    )


def _pattern_distribution(bits: list[PatternVector]) -> Counter[int]:
    """Joint segment walk over compressed pbits.

    Where every pbit is in a repeat, the span's chunk tuple is counted
    once and scaled by the span's length (memoized per tuple); where any
    is in a literal, the span's block is counted whole.
    """
    store = bits[0].store
    for b in bits[1:]:
        if b.store is not store:
            raise MeasurementError("pbits must share a ChunkStore")
        if b.ways != bits[0].ways:
            raise MeasurementError("pbits must share entanglement ways")
    cb = store.chunk_bits
    result: Counter[int] = Counter()
    memo: dict[tuple[int, ...], dict[int, int]] = {}
    segments = [vec.segments for vec in bits]
    index = [0] * len(bits)  # segment per pbit
    offset = [0] * len(bits)  # chunks of it walked
    total_chunks = bits[0].num_chunks
    done = 0
    while done < total_chunks:
        current = [segs[index[i]] for i, segs in enumerate(segments)]
        take = min(abs(n) - offset[i] for i, (_, n) in enumerate(current))
        if all(n > 0 for _, n in current):
            # Keyed on the chunks' identity, so no chunk int is hashed;
            # the vectors hold every chunk for the whole walk.
            key = tuple(id(value) for value, _ in current)
            counts = memo.get(key)
            if counts is None:
                counts = memo[key] = _value_counts(
                    [value for value, _ in current], cb)
            scale = take
        else:  # a literal is one whole block, which ``take`` is
            counts = _value_counts(
                [value if n < 0 else repeat_chunk(value, take, cb)
                 for value, n in current], take * cb)
            scale = 1
        for value, count in counts.items():
            result[value] += count * scale
        done += take
        for i, (_, n) in enumerate(current):
            offset[i] += take
            if offset[i] == abs(n):
                index[i] += 1
                offset[i] = 0
    return result


def values_where(pint: Pint, condition) -> list[int]:
    """Distinct values of ``pint`` in channels where ``condition`` holds.

    ``condition`` is a single pbit value (or a width-1 :class:`Pint`).
    This is the Tangled/Qat readout idiom of the paper's section 4.2: walk
    the 1-channels of the condition with ``next`` and assemble the word's
    bits at each with ``meas``.
    """
    if isinstance(condition, Pint):
        if condition.width != 1:
            raise MeasurementError("condition must be a single pbit")
        condition = condition.bits[0]
    seen: set[int] = set()
    for channel in condition.iter_ones():
        seen.add(pint.at(channel))
    return sorted(seen)
