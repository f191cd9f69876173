"""PBP execution context: substrate choice and entanglement-channel bookkeeping.

A :class:`PbpContext` fixes the entanglement degree ``ways`` for a
computation, picks the value substrate (dense AoB up to the hardware's
16-way limit, run-length compressed pattern vectors beyond -- exactly the
paper's section 1.2 split), and hands out *disjoint* Hadamard channel sets,
the discipline that made Figure 9's ``b * c`` an 8-way entangled product
rather than a 4-way entangled square.
"""

from __future__ import annotations

from repro.aob import AoB
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import ChannelExhaustedError, EntanglementError
from repro.gates.alg import ValueAlgebra
from repro.pattern import ChunkStore, PatternVector
from repro.pattern.vector import PAPER_CHUNK_WAYS
from repro.pbp.pint import Pint

BACKENDS = ("auto", "aob", "pattern")


class PbpContext:
    """Owns the substrate and the entanglement-channel allocator.

    Parameters
    ----------
    ways:
        Total entanglement degree: every pbit in this context is an array
        of :math:`2^{ways}` bits (possibly compressed).
    backend:
        ``"aob"`` for dense vectors, ``"pattern"`` for RE-compressed
        vectors, or ``"auto"`` (dense up to the Qat hardware's 16-way,
        compressed beyond).
    chunk_ways:
        Chunk width for the pattern backend (the paper's hardware chunks
        are 16-way / 65,536 bits; tests may use smaller), in
        ``[6, min(ways, 26)]``.  The pattern backend's :class:`ChunkStore`
        belongs to this context alone.
    """

    def __init__(
        self,
        ways: int,
        backend: str = "auto",
        chunk_ways: int | None = None,
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        if ways < 0:
            raise EntanglementError(f"ways must be non-negative, got {ways}")
        if backend == "auto":
            backend = "aob" if ways <= PAPER_CHUNK_WAYS else "pattern"
        if backend == "aob" and ways > MAX_DENSE_WAYS:
            raise EntanglementError(
                f"{ways}-way is too wide for the dense backend; use 'pattern'"
            )
        self.ways = ways
        self.backend = backend
        if backend == "pattern":
            cw = chunk_ways if chunk_ways is not None else min(PAPER_CHUNK_WAYS, ways)
            # A pattern vector's chunks are whole 64-bit words, no wider
            # than the vector or the widest dense chunk.
            top = min(ways, MAX_DENSE_WAYS)
            if not 6 <= cw <= top:
                raise EntanglementError(
                    f"pattern chunk_ways must be in [6, {top}] for "
                    f"{ways}-way values, got {cw}"
                )
            self.store: ChunkStore | None = ChunkStore(cw)
            self.alg = ValueAlgebra(ways, PatternVector, self.store)
        else:
            self.store = None
            self.alg = ValueAlgebra(ways, AoB)
        self._used_channels = 0  # bitmask over Hadamard indices 0..ways-1

    # -- channel allocation ----------------------------------------------------

    @property
    def used_channel_mask(self) -> int:
        """Bitmask of Hadamard channel sets already claimed."""
        return self._used_channels

    def claim_channels(self, mask: int) -> None:
        """Mark Hadamard channel sets as used; raises on any overlap."""
        if mask < 0 or mask >> self.ways:
            raise EntanglementError(
                f"channel mask {mask:#x} exceeds {self.ways} ways"
            )
        if mask & self._used_channels:
            raise EntanglementError(
                f"channel sets {mask & self._used_channels:#x} already claimed"
            )
        self._used_channels |= mask

    def alloc_channels(self, count: int) -> int:
        """Claim the ``count`` lowest unused channel sets; returns the mask."""
        mask = 0
        found = 0
        for k in range(self.ways):
            if not (self._used_channels >> k) & 1:
                mask |= 1 << k
                found += 1
                if found == count:
                    break
        if found < count:
            raise ChannelExhaustedError(
                f"requested {count} channel sets but only {found} remain "
                f"of {self.ways}"
            )
        self._used_channels |= mask
        return mask

    # -- pint constructors --------------------------------------------------------

    def pint_mk(self, width: int, value: int) -> Pint:
        """Constant pattern integer (Figure 9 ``pint_mk``)."""
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        bits = tuple(self.alg.const((value >> i) & 1) for i in range(width))
        return Pint(self, bits, channels=0)

    def pint_h(self, width: int, channel_mask: int) -> Pint:
        """Hadamard superposition over explicit channel sets (``pint_h``).

        Bit ``i`` of the result is ``H(k_i)`` where ``k_i`` is the ``i``-th
        set bit of ``channel_mask``; the mask must have exactly ``width``
        bits set, all of them unclaimed.  The result takes each value
        ``0 .. 2**width - 1`` with equal probability.
        """
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        ks = [k for k in range(self.ways) if (channel_mask >> k) & 1]
        if channel_mask < 0 or channel_mask >> self.ways or len(ks) != width:
            raise EntanglementError(
                f"channel mask {channel_mask:#x} must select exactly {width} "
                f"of {self.ways} channel sets"
            )
        self.claim_channels(channel_mask)
        bits = tuple(self.alg.had(k) for k in ks)
        return Pint(self, bits, channels=channel_mask)

    def pint_h_fresh(self, width: int) -> Pint:
        """Hadamard superposition over the next ``width`` unused channel sets."""
        mask = self.alloc_channels(width)
        ks = [k for k in range(self.ways) if (mask >> k) & 1]
        bits = tuple(self.alg.had(k) for k in ks)
        return Pint(self, bits, channels=mask)

    def pint_from_values(self, values: list) -> Pint:
        """Build a pint directly from per-bit pbit values (advanced use)."""
        return Pint(self, tuple(values), channels=0)

    # -- raw pbit helpers ------------------------------------------------------------

    def const(self, bit: int):
        """The constant pbit 0 or 1 as a substrate value."""
        return self.alg.const(bit)

    def had(self, k: int):
        """The ``H(k)`` pbit as a substrate value."""
        return self.alg.had(k)

    def __repr__(self) -> str:
        return (
            f"PbpContext(ways={self.ways}, backend={self.backend!r}, "
            f"used={self._used_channels:#x})"
        )
