"""Interned chunk symbols with memoized gate operations.

Each symbol is a ``chunk_ways``-way chunk (65,536 bits for the paper's
full-scale Qat) held as a Python ``int``, channel ``e`` being bit ``e``;
:class:`~repro.aob.AoB` is only the type at the store's edge.  Identical
chunks intern to the same symbol id, and the result of any gate applied
to a given symbol pair is computed exactly once.  This is what turns the
run-length representation into *symbolic* computation: a gate over two
pattern vectors costs O(distinct symbol pairs), not O(total bits).
"""

from __future__ import annotations

from collections import OrderedDict
from operator import and_, or_, xor

from repro.aob import AoB, hadamard_int
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import EntanglementError
from repro.obs import runtime as _obs
from repro.utils.bits import words_for_bits

#: Default bound on each gate memo table (entries).  Long RE-backend
#: runs keep streaming fresh symbol pairs; an unbounded memo would grow
#: with them forever.  Eviction is least-recently-used and deterministic,
#: so the memo counters stay byte-reproducible where it fires (wide
#: factorings, such as the suite's 22-way one, do evict).
MEMO_LIMIT = 1 << 16

#: The chunk gates; all three are commutative.
_BINOPS = {"and": and_, "or": or_, "xor": xor}


class ChunkStore:
    """Hash-consing store for chunk symbols of a fixed width.

    Symbol ids are small ints; id 0 is always the all-zeros chunk and id 1
    the all-ones chunk (mirroring the paper's suggestion of reserving
    constant registers ``@0`` = 0 and ``@1`` = 1).  Telemetry counts the
    bits (``qat.bits.*``) the equivalent dense AoB kernel would sweep.
    """

    def __init__(self, chunk_ways: int, memo_limit: int = MEMO_LIMIT):
        if not 0 <= chunk_ways <= MAX_DENSE_WAYS:  # chunks convert to AoB
            raise EntanglementError(
                f"chunk_ways must be in [0, {MAX_DENSE_WAYS}], got {chunk_ways}"
            )
        if memo_limit <= 0:
            raise EntanglementError(
                f"memo_limit must be positive, got {memo_limit}"
            )
        self.chunk_ways = chunk_ways
        #: LRU bound on every memo table (binop / not / measurement)
        self.memo_limit = memo_limit
        #: memo entries dropped to stay under :attr:`memo_limit`
        self.memo_evicted = 0
        #: eviction breakdown per memo table
        self.memo_evicted_by = {"binop": 0, "not": 0, "measure": 0}
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
        # Memo tables are ordered by recency (a hit moves its entry to
        # the end), so the least recently used entry is evicted first.
        self._binop_cache: OrderedDict[tuple[str, int, int], int] = \
            OrderedDict()
        self._not_cache: OrderedDict[int, int] = OrderedDict()
        # Per-symbol measurement summaries, memoized lazily (LRU-bounded
        # under memo_limit like the gate tables).
        self._popcount: OrderedDict[int, int] = OrderedDict()
        self._first_one: OrderedDict[int, int] = OrderedDict()
        # Memo-table effectiveness (the RE compression win): always kept
        # as plain ints, published to telemetry only when it is active.
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
        sym = self._ids.get(value)
        if sym is None:
            sym = len(self._ints)
            self._ints.append(value)
            self._ids[value] = sym
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
        every memoized result involving the symbol is purged, so the
        symbolic layer recomputes from the surviving bits instead of
        serving stale gate results.  Both paths bump :attr:`degraded` and
        the ``chunkstore.degraded`` telemetry counter.
        """
        if not 0 <= sym < len(self._ints):
            self._degrade()
            return self._ints[self.zero_id]
        value = self._ints[sym]
        digest = hash(value)
        if digest != self._digests[sym]:
            self._degrade()
            self._reintern(sym, digest)
        return value

    def _degrade(self) -> None:
        self.degraded += 1
        if _obs.active:
            _obs.current().metrics.counter("chunkstore.degraded").inc()

    def _reintern(self, sym: int, digest: int) -> None:
        """Adopt a mutated chunk's bits as the symbol's new value."""
        self._digests[sym] = digest
        # Purge in place: the tables stay OrderedDicts in recency order.
        for key in [key for key, result in self._binop_cache.items()
                    if sym in (key[1], key[2], result)]:
            del self._binop_cache[key]
        for a in [a for a, b in self._not_cache.items() if sym in (a, b)]:
            del self._not_cache[a]
        self._popcount.pop(sym, None)
        self._first_one.pop(sym, None)
        self._reindex()

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
        :meth:`chunks` (one per symbol).  All memo tables are dropped --
        they may reference symbols whose values changed.
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
        self._binop_cache.clear()
        self._not_cache.clear()
        self._popcount.clear()
        self._first_one.clear()

    def hadamard(self, k: int) -> int:
        """Symbol id of the ``H(k)`` pattern restricted to one chunk."""
        return self.intern_int(hadamard_int(self.chunk_ways, k))

    # -- memoized gate operations --------------------------------------------

    def binop(self, op: str, a: int, b: int) -> int:
        """Apply gate ``op`` in {'and','or','xor'} to symbols ``a``, ``b``."""
        fn = _BINOPS.get(op)
        if fn is None:
            raise ValueError(f"unknown chunk binop {op!r}")
        if a > b:
            a, b = b, a  # all three gates are commutative: halve the cache
        key = (op, a, b)
        cache = self._binop_cache
        sym = cache.get(key)
        if sym is not None:
            cache.move_to_end(key)
            self.gate_hits += 1
            if _obs.active:
                self._publish_gate(hit=True)
            return sym
        self.gate_misses += 1
        if _obs.active:
            self._publish_gate(hit=False)
            _obs.current().qat_kernel(op, self.chunk_words)
        sym = self.intern_int(fn(self._ints[a], self._ints[b]))
        self._memo_insert(cache, key, sym, "binop")
        return sym

    def bnot(self, a: int) -> int:
        """Apply NOT to symbol ``a``."""
        cache = self._not_cache
        sym = cache.get(a)
        if sym is not None:
            cache.move_to_end(a)
            self.gate_hits += 1
            if _obs.active:
                self._publish_gate(hit=True)
            return sym
        self.gate_misses += 1
        if _obs.active:
            self._publish_gate(hit=False)
            _obs.current().qat_kernel("not", self.chunk_words)
        sym = self.intern_int(self._ints[a] ^ self._mask)
        self._memo_insert(cache, a, sym, "not")
        self._memo_insert(cache, sym, a, "not")  # involution
        return sym

    def _memo_insert(self, cache: OrderedDict, key, value, table: str) -> None:
        """Insert one memo entry, evicting the least recently used past
        :attr:`memo_limit`."""
        cache[key] = value
        if len(cache) > self.memo_limit:
            cache.popitem(last=False)
            self.memo_evicted += 1
            self.memo_evicted_by[table] += 1
            if _obs.active:
                _obs.current().metrics.counter("chunkstore.memo.evicted").inc()

    def _publish_gate(self, hit: bool) -> None:
        """Telemetry for one memoized-gate lookup: hit = a chunk op avoided."""
        metrics = _obs.current().metrics
        if hit:
            metrics.counter("chunkstore.binop.hit").inc()
            metrics.counter("chunkstore.bytes_saved").add(self.chunk_bits >> 3)
        else:
            metrics.counter("chunkstore.binop.miss").inc()

    # -- memoized measurement summaries ---------------------------------------

    def popcount(self, sym: int) -> int:
        """Number of 1 bits in symbol ``sym``."""
        count = self._popcount.get(sym)
        if count is not None:
            self._popcount.move_to_end(sym)
            return count
        count = self.chunk_int_safe(sym).bit_count()
        if _obs.active:
            _obs.current().qat_kernel("popcount", self.chunk_words)
        self._memo_insert(self._popcount, sym, count, "measure")
        return count

    def first_one(self, sym: int) -> int:
        """Lowest channel holding a 1 within the chunk, or -1 if none."""
        first = self._first_one.get(sym)
        if first is not None:
            self._first_one.move_to_end(sym)
            return first
        value = self.chunk_int_safe(sym)
        if _obs.active:  # the meas(0)-then-next(0) readout
            telemetry = _obs.current()
            telemetry.qat_kernel("meas", 1)
            if not value & 1:
                telemetry.qat_kernel("next", self.chunk_words)
        first = (value & -value).bit_length() - 1
        self._memo_insert(self._first_one, sym, first, "measure")
        return first

    def stats(self) -> dict:
        """Diagnostics: store size, cache hit surface, and memo hit rate."""
        return {
            "symbols": len(self._ints),
            "binop_cache": len(self._binop_cache),
            "not_cache": len(self._not_cache),
            "gate_hits": self.gate_hits,
            "gate_misses": self.gate_misses,
            "memo_limit": self.memo_limit,
            "memo_evicted": self.memo_evicted,
            **{f"memo_evicted_{table}": count
               for table, count in self.memo_evicted_by.items()},
            "degraded": self.degraded,
        }
