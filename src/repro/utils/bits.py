"""Bit-layout helpers shared by the AoB and pattern substrates.

An AoB value is a Python ``int`` whose bit ``e`` is entanglement channel
``e``.  Its packed uint64 word layout -- channel ``c`` at bit ``c & 63``
of word ``c >> 6`` -- survives only as the on-disk checkpoint format and
as the unit of telemetry bit volume; these helpers size it.
"""

from __future__ import annotations

#: Number of bits per storage word.
WORD_BITS = 64


def words_for_bits(nbits: int) -> int:
    """Number of 64-bit words needed to hold ``nbits`` bits (at least 1)."""
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    return max(1, (nbits + WORD_BITS - 1) // WORD_BITS)
