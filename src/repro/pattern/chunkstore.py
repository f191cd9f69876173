"""Chunk-level gates over chunks held as Python ints.

A chunk is ``chunk_ways``-way (65,536 bits for the paper's full-scale
Qat) held as a Python ``int``, channel ``e`` being bit ``e``;
:class:`~repro.aob.AoB` is only the type at the store's edge.  A
pattern vector's segments hold their ints themselves -- a repeated
chunk, or a literal block of chunks packed into one int -- so the
store keeps no per-chunk state: a chunk lives exactly as long as some
vector holds it, and memory follows the live values, not the history of
the computation.  What the store keeps is the chunk width, the two
constant chunks and the gate telemetry.  Every gate takes the number of
chunks its operands pack (1 for a chunk), so telemetry charges the bits
the equivalent dense AoB kernel would sweep.
"""

from __future__ import annotations

from operator import and_, or_, xor

from repro.aob import AoB, hadamard_int
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import EntanglementError
from repro.obs import runtime as _obs
from repro.utils.bits import words_for_bits

#: The chunk gates.
_BINOPS = {"and": and_, "or": or_, "xor": xor}


class ChunkStore:
    """Chunk width, constants and chunk gates of a fixed width.

    A symbol is the chunk int itself.  ``zero_id`` is the all-zeros
    chunk and ``one_id`` the all-ones chunk (mirroring the paper's
    suggestion of reserving constant registers ``@0`` = 0 and ``@1`` =
    1).  Telemetry counts the bits (``qat.bits.*``) the equivalent dense
    AoB kernel would sweep.
    """

    def __init__(self, chunk_ways: int):
        if not 0 <= chunk_ways <= MAX_DENSE_WAYS:  # chunks convert to AoB
            raise EntanglementError(
                f"chunk_ways must be in [0, {MAX_DENSE_WAYS}], got {chunk_ways}"
            )
        self.chunk_ways = chunk_ways
        self.chunk_bits = 1 << chunk_ways
        #: packed uint64 words a dense chunk occupies (telemetry volume)
        self.chunk_words = words_for_bits(self.chunk_bits)
        self._mask = (1 << self.chunk_bits) - 1
        # Gate results that extended the repeat before them (hits), and
        # the segments made (misses), counted by the vectors' segment
        # walks: always kept as plain ints, published to telemetry only
        # when it is active.
        self.gate_hits = 0
        self.gate_misses = 0
        self.zero_id = 0
        if _obs.active:
            _obs.current().qat_kernel("one", self.chunk_words)
        self.one_id = self._mask

    # -- the AoB edge -----------------------------------------------------------

    def intern(self, chunk: AoB) -> int:
        """The symbol (chunk int) of the AoB ``chunk``."""
        if chunk.ways != self.chunk_ways:
            raise EntanglementError(
                f"chunk must be {self.chunk_ways}-way, got {chunk.ways}-way"
            )
        return chunk.to_int()

    def chunk(self, sym: int) -> AoB:
        """The AoB value of symbol ``sym``."""
        return AoB(self.chunk_ways, sym)

    def chunk_int(self, sym: int) -> int:
        """The int value of symbol ``sym``: the symbol itself."""
        return sym

    def hadamard(self, k: int) -> int:
        """The ``H(k)`` pattern restricted to one chunk."""
        return hadamard_int(self.chunk_ways, k)

    # -- gate operations ------------------------------------------------------

    def binop(self, op: str, a: int, b: int, chunks: int = 1) -> int:
        """Apply gate ``op`` in {'and','or','xor'} to ``a`` and ``b``,
        each ``chunks`` chunks packed into one int."""
        fn = _BINOPS.get(op)
        if fn is None:
            raise ValueError(f"unknown chunk binop {op!r}")
        if _obs.active:
            _obs.current().qat_kernel(op, self.chunk_words * chunks)
        return fn(a, b)

    def bnot(self, a: int, chunks: int = 1) -> int:
        """Apply NOT to ``a``, ``chunks`` chunks packed into one int."""
        if _obs.active:
            _obs.current().qat_kernel("not", self.chunk_words * chunks)
        if chunks == 1:
            return a ^ self._mask
        return a ^ ((1 << (chunks << self.chunk_ways)) - 1)

    def count_results(self, hits: int, misses: int) -> None:
        """Count a segment walk's gate results: ``hits`` extended the
        repeat before them, ``misses`` is the segments the walk made."""
        self.gate_hits += hits
        self.gate_misses += misses
        if _obs.active:
            metrics = _obs.current().metrics
            if hits:
                metrics.counter("chunkstore.binop.hit").add(hits)
            if misses:
                metrics.counter("chunkstore.binop.miss").add(misses)
                metrics.gauge("chunkstore.symbols").set(self.gate_misses)

    # -- measurement summaries -------------------------------------------------

    def popcount(self, sym: int, chunks: int = 1) -> int:
        """Number of 1 bits in ``sym`` (``chunks`` chunks)."""
        if _obs.active:
            _obs.current().qat_kernel("popcount", self.chunk_words * chunks)
        return sym.bit_count()

    def first_one(self, sym: int, chunks: int = 1) -> int:
        """Lowest channel holding a 1 within ``sym`` (``chunks`` chunks),
        or -1 if none."""
        if _obs.active:  # the meas(0)-then-next(0) readout
            telemetry = _obs.current()
            telemetry.qat_kernel("meas", 1)
            if not sym & 1:
                telemetry.qat_kernel("next", self.chunk_words * chunks)
        return (sym & -sym).bit_length() - 1

    def stats(self) -> dict:
        """Diagnostics: gate results that extended a repeat, and the
        segments gate walks made.

        ``symbols`` counts the segments (the misses): the ints a vector
        may have gone on to hold.
        """
        return {
            "symbols": self.gate_misses,
            "gate_hits": self.gate_hits,
            "gate_misses": self.gate_misses,
        }
