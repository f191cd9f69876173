"""Shared low-level helpers (bit manipulation, formatting)."""

from repro.utils.bits import WORD_BITS, words_for_bits

__all__ = ["WORD_BITS", "words_for_bits"]
