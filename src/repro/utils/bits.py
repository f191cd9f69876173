"""Bit-manipulation primitives shared by the AoB and pattern substrates.

AoB values pack :math:`2^E` bits little-endian into 64-bit words:
entanglement channel ``c`` lives at bit ``c & 63`` of word ``c >> 6``.
The helpers here are the only place that layout knowledge is encoded.
"""

from __future__ import annotations

import numpy as np

#: Number of bits per storage word.
WORD_BITS = 64

_U64_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)


def words_for_bits(nbits: int) -> int:
    """Number of 64-bit words needed to hold ``nbits`` bits (at least 1)."""
    if nbits <= 0:
        raise ValueError(f"nbits must be positive, got {nbits}")
    return max(1, (nbits + WORD_BITS - 1) // WORD_BITS)


def top_mask(nbits: int) -> np.uint64:
    """Mask selecting the valid bits of the *last* storage word.

    For ``nbits`` that is a multiple of 64 the whole word is valid and the
    mask is all ones; otherwise only the low ``nbits % 64`` bits are kept.
    """
    rem = nbits % WORD_BITS
    if rem == 0:
        return _U64_ALL_ONES
    return np.uint64((1 << rem) - 1)


def ctz64(word: int) -> int:
    """Count trailing zeros of a non-zero 64-bit word.

    This is the software analogue of the combinatorial
    count-trailing-zeros block in the paper's Figure 8 ``qatnext`` design.
    """
    word = int(word)
    if word == 0:
        raise ValueError("ctz64 of zero is undefined")
    return (word & -word).bit_length() - 1


#: The repeating 64-bit word of ``H(k)`` for each ``k < 6``: runs of
#: :math:`2^k` zeros then :math:`2^k` ones, starting at channel 0.
_HADAMARD_WORDS = tuple(np.uint64(word) for word in (
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
))


def hadamard_word(k: int) -> np.uint64:
    """The repeating 64-bit word of the Hadamard pattern ``H(k)`` for k < 6.

    ``H(k)`` sets channel ``e`` to bit ``k`` of the binary value of ``e``
    (paper section 2.3): a repeating run of :math:`2^k` zeros followed by
    :math:`2^k` ones.  For ``k < 6`` the run pattern fits inside a single
    64-bit word, so every storage word of the AoB is this constant.
    """
    if not 0 <= k < 6:
        raise ValueError(f"hadamard_word needs 0 <= k < 6, got {k}")
    return _HADAMARD_WORDS[k]


def popcount_words(words: np.ndarray) -> int:
    """Total number of set bits across an array of uint64 words."""
    if words.size == 0:
        return 0
    return int(np.bitwise_count(words).sum())
