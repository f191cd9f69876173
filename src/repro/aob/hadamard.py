"""Hadamard-pattern generators: the ``had`` initializer of section 2.3.

``had @a,k`` loads register ``@a`` with the *standard entangled
superposition* ``H(k)``: entanglement channel ``e`` receives bit ``k`` of
the binary value of ``e``, i.e. a repeating run of :math:`2^k` zeros
followed by :math:`2^k` ones.  The paper's Figure 7 gives the parametric
Verilog (``aob[i] = (i >> h)`` -- the low bit of the shift); this module is
its software rendering on an ``int`` AoB (channel ``e`` = bit ``e``).
"""

from __future__ import annotations

from repro.obs import runtime as _obs

#: One period of ``H(k)`` for ``k < 3``, as a byte (channel 0 = bit 0).
_SUB_BYTE_PERIODS = (b"\xaa", b"\xcc", b"\xf0")


def hadamard_bit(e: int, k: int) -> int:
    """Bit value of channel ``e`` in the ``H(k)`` pattern (Figure 7 semantics)."""
    if e < 0 or k < 0:
        raise ValueError("channel and k must be non-negative")
    return (e >> k) & 1


def hadamard_int(ways: int, k: int) -> int:
    """The ``H(k)`` pattern of a ``2**ways``-bit AoB as an int.

    One period -- :math:`2^k` zero channels then :math:`2^k` one
    channels -- is a byte string (a sub-byte pattern repeated for
    ``k < 3``), so the whole AoB is that string repeated and read as one
    little-endian int: O(number of bytes), matching the paper's
    observation that ``had`` could be replaced by pre-computed constant
    registers.

    ``k`` may be any value ``0 <= k < 16`` (the Tangled immediate is 4
    bits); channels whose index has bit ``k`` beyond the AoB width simply
    produce an all-zeros pattern, mirroring the Figure 7 Verilog where
    ``i >> h`` is zero for ``h`` past the top of ``i``.
    """
    if ways < 0:
        raise ValueError(f"ways must be non-negative, got {ways}")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if _obs.active:
        telemetry = _obs.current()
        telemetry.metrics.counter("qat.had_patterns").inc()
        telemetry.metrics.counter("qat.aob_bits").add(1 << ways)
    if k >= ways:
        # Every channel index e < 2**ways has bit k clear.
        return 0
    if k < 3:
        period = _SUB_BYTE_PERIODS[k]
    else:
        half = b"\x00" * (1 << (k - 3))
        period = half + b"\xff" * len(half)
    nbits = 1 << ways
    value = int.from_bytes(period * max(1, nbits // (len(period) << 3)),
                           "little")
    return value & ((1 << nbits) - 1) if nbits < 8 else value
