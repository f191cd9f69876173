"""Non-destructive measurement of pattern integers.

The paper stresses (section 2.7) that PBP measurement returns *all* values
in an entangled superposition without collapsing it.  This module provides
the whole-distribution readout:

- for the dense AoB backend, a vectorized assemble-and-count over all
  :math:`2^E` channels, and
- for the pattern backend, a joint run-merge across the word's pbits that
  counts each *distinct tuple of chunks* once (memoized), so perfectly
  regular superpositions are measured in time independent of
  :math:`2^E` -- the same symbolic-computation win the RE representation
  gives gate operations.
"""

from __future__ import annotations

from collections import Counter

from repro.aob import AoB
from repro.errors import MeasurementError
from repro.pattern import PatternVector
from repro.pbp.pint import Pint

_MAX_WIDTH = 32  # assembled values are held in uint32 lanes


def _dense_value_counts(chunks: list[AoB]) -> dict[int, int]:
    """Counts of assembled values over a list of equal-width AoB pbits."""
    import numpy as np

    acc = np.zeros(chunks[0].nbits, dtype=np.uint32)
    for i, chunk in enumerate(chunks):
        acc |= chunk.to_bool_array().astype(np.uint32) << np.uint32(i)
    values, counts = np.unique(acc, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


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
        return Counter(_dense_value_counts(list(pint.bits)))
    if isinstance(first, PatternVector):
        return _pattern_distribution(list(pint.bits))
    raise MeasurementError(
        f"unsupported pbit type {type(first).__name__} (a trace context "
        "records gates but holds no data: compile and run it instead)"
    )


def _pattern_distribution(bits: list[PatternVector]) -> Counter[int]:
    """Joint run-merge measurement over compressed pbits."""
    store = bits[0].store
    for b in bits[1:]:
        if b.store is not store:
            raise MeasurementError("pbits must share a ChunkStore")
        if b.ways != bits[0].ways:
            raise MeasurementError("pbits must share entanglement ways")
    result: Counter[int] = Counter()
    memo: dict[tuple[int, ...], dict[int, int]] = {}
    # Walk all run lists simultaneously.
    positions = [0] * len(bits)  # run index per pbit
    remaining = [vec.runs[0][1] for vec in bits]
    total_chunks = bits[0].num_chunks
    done = 0
    while done < total_chunks:
        take = min(remaining)
        syms = [vec.runs[positions[i]][0] for i, vec in enumerate(bits)]
        # Keyed on the chunks' identity, so no chunk int is hashed; the
        # vectors hold every chunk for the whole walk.
        key = tuple(map(id, syms))
        counts = memo.get(key)
        if counts is None:
            chunks = [store.chunk(sym) for sym in syms]
            counts = _dense_value_counts(chunks)
            memo[key] = counts
        for value, count in counts.items():
            result[value] += count * take
        done += take
        for i, vec in enumerate(bits):
            remaining[i] -= take
            if remaining[i] == 0 and done < total_chunks:
                positions[i] += 1
                remaining[i] = vec.runs[positions[i]][1]
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
