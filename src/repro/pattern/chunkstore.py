"""Interned chunk symbols and the chunk-level gates over them.

Each symbol is a ``chunk_ways``-way chunk (65,536 bits for the paper's
full-scale Qat) held as a Python ``int``, channel ``e`` being bit ``e``;
:class:`~repro.aob.AoB` is only the type at the store's edge.  Identical
chunks intern to the same symbol id.  A gate computes its big-int op and
looks the result up by value, so a result some earlier gate produced
comes back as its existing symbol.  This is what turns the run-length
representation into *symbolic* computation: a gate over two pattern
vectors walks their runs, not their bits.
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
    """Hash-consing store for chunk symbols of a fixed width.

    Symbol ids are small ints; id 0 is always the all-zeros chunk and id 1
    the all-ones chunk (mirroring the paper's suggestion of reserving
    constant registers ``@0`` = 0 and ``@1`` = 1).  Telemetry counts the
    bits (``qat.bits.*``) the equivalent dense AoB kernel would sweep.
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
        self._ints: list[int] = []
        self._ids: dict[int, int] = {}
        # hash() of each interned value, checked by chunk_int_safe so a
        # corrupted chunk degrades instead of poisoning the symbolic layer.
        # Int hashes reduce modulo 2**61 - 1, which no 2**k divides, so
        # every single-bit flip changes the digest.
        self._digests: list[int] = []
        # Gate results that already had a symbol (hits) or interned a new
        # one (misses): always kept as plain ints, published to telemetry
        # only when it is active.
        self.gate_hits = 0
        self.gate_misses = 0
        #: Times chunk_safe had to degrade (bad symbol or digest mismatch).
        self.degraded = 0
        self.zero_id = self.intern_int(0)
        if _obs.active:
            _obs.current().qat_kernel("one", self.chunk_words)
        self.one_id = self.intern_int(self._mask)

    def __len__(self) -> int:
        return len(self._ints)

    # -- interning ----------------------------------------------------------

    def intern(self, chunk: AoB) -> int:
        """Return the symbol id for the AoB ``chunk``, adding it if new."""
        if chunk.ways != self.chunk_ways:
            raise EntanglementError(
                f"chunk must be {self.chunk_ways}-way, got {chunk.ways}-way"
            )
        return self.intern_int(chunk.to_int())

    def intern_int(self, value: int) -> int:
        """:meth:`intern` for a chunk given as an int < ``2**chunk_bits``."""
        new = len(self._ints)
        # One dict probe finds or adds the value: an int's hash is not
        # cached, and costs microseconds at the paper's 65,536-bit chunks.
        sym = self._ids.setdefault(value, new)
        if sym == new:
            self._ints.append(value)
            self._digests.append(hash(value))
            if _obs.active:
                _obs.current().metrics.gauge("chunkstore.symbols").set(
                    len(self._ints)
                )
        return sym

    def chunk(self, sym: int) -> AoB:
        """The AoB value of symbol ``sym``."""
        return AoB(self.chunk_ways, self._ints[sym])

    def chunk_int(self, sym: int) -> int:
        """The int value of symbol ``sym`` (channel ``e`` = bit ``e``)."""
        return self._ints[sym]

    def chunk_safe(self, sym: int) -> AoB:
        """Fault-tolerant :meth:`chunk`; see :meth:`chunk_int_safe`."""
        return AoB(self.chunk_ways, self.chunk_int_safe(sym))

    def chunk_int_safe(self, sym: int) -> int:
        """Fault-tolerant :meth:`chunk_int`: degrade on corruption, never crash.

        An out-of-range symbol (e.g. a bit flip in a run-length encoding)
        resolves to the all-zeros chunk; a chunk whose value no longer
        matches its interning-time digest (a soft error in chunk memory) is
        accepted as dense ground truth again -- its digest is refreshed and
        the value index rebuilt, so interning finds the symbol by its
        surviving bits.  Both paths bump :attr:`degraded` and the
        ``chunkstore.degraded`` telemetry counter.
        """
        if not 0 <= sym < len(self._ints):
            self._degrade()
            return self._ints[self.zero_id]
        value = self._ints[sym]
        digest = hash(value)
        if digest != self._digests[sym]:
            self._degrade()
            self._digests[sym] = digest
            self._reindex()
        return value

    def _degrade(self) -> None:
        self.degraded += 1
        if _obs.active:
            _obs.current().metrics.counter("chunkstore.degraded").inc()

    def _reindex(self) -> None:
        """Rebuild the value -> id index; the lowest id of a value wins."""
        self._ids = {v: i for i, v in reversed(list(enumerate(self._ints)))}

    # -- checkpoint support ---------------------------------------------------

    def chunks(self) -> list[AoB]:
        """Every interned chunk, in symbol-id order (for checkpointing)."""
        return [AoB(self.chunk_ways, value) for value in self._ints]

    def restore_chunks(self, chunks) -> None:
        """Rebuild the store from chunk values, id order preserved.

        ``chunks`` is a sequence of AoB values as captured by
        :meth:`chunks` (one per symbol).
        """
        if any(chunk.ways != self.chunk_ways for chunk in chunks):
            raise EntanglementError(
                f"every chunk must be {self.chunk_ways}-way"
            )
        values = [chunk.to_int() for chunk in chunks]
        if len(values) < 2:
            raise EntanglementError(
                "restore_chunks needs at least the two constant chunks"
            )
        self._ints = values
        self._reindex()
        self._digests = [hash(value) for value in values]

    def hadamard(self, k: int) -> int:
        """Symbol id of the ``H(k)`` pattern restricted to one chunk."""
        return self.intern_int(hadamard_int(self.chunk_ways, k))

    # -- gate operations ------------------------------------------------------

    def binop(self, op: str, a: int, b: int) -> int:
        """Apply gate ``op`` in {'and','or','xor'} to symbols ``a``, ``b``."""
        fn = _BINOPS.get(op)
        if fn is None:
            raise ValueError(f"unknown chunk binop {op!r}")
        return self._gate(op, fn(self._ints[a], self._ints[b]))

    def bnot(self, a: int) -> int:
        """Apply NOT to symbol ``a``."""
        return self._gate("not", self._ints[a] ^ self._mask)

    def _gate(self, op: str, value: int) -> int:
        """Symbol of gate ``op``'s result ``value``: a hit if the value
        already had one, a miss if it is interned now."""
        known = len(self._ints)
        sym = self.intern_int(value)
        hit = sym < known
        if hit:
            self.gate_hits += 1
        else:
            self.gate_misses += 1
        if _obs.active:
            telemetry = _obs.current()
            telemetry.metrics.counter(
                "chunkstore.binop.hit" if hit else "chunkstore.binop.miss"
            ).inc()
            telemetry.qat_kernel(op, self.chunk_words)
        return sym

    # -- measurement summaries -------------------------------------------------

    def popcount(self, sym: int) -> int:
        """Number of 1 bits in symbol ``sym``."""
        count = self.chunk_int_safe(sym).bit_count()
        if _obs.active:
            _obs.current().qat_kernel("popcount", self.chunk_words)
        return count

    def first_one(self, sym: int) -> int:
        """Lowest channel holding a 1 within the chunk, or -1 if none."""
        value = self.chunk_int_safe(sym)
        if _obs.active:  # the meas(0)-then-next(0) readout
            telemetry = _obs.current()
            telemetry.qat_kernel("meas", 1)
            if not value & 1:
                telemetry.qat_kernel("next", self.chunk_words)
        return (value & -value).bit_length() - 1

    def stats(self) -> dict:
        """Diagnostics: store size, gate result reuse, degradations."""
        return {
            "symbols": len(self._ints),
            "gate_hits": self.gate_hits,
            "gate_misses": self.gate_misses,
            "degraded": self.degraded,
        }
