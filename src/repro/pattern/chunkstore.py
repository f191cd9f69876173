"""Interned chunk symbols with memoized gate operations.

Each symbol is an :class:`~repro.aob.AoB` of ``chunk_ways`` entanglement
(65,536 bits for the paper's full-scale Qat).  Because AoB values are
immutable and hashable, identical chunks intern to the same symbol id, and
the result of any gate applied to a given symbol pair is computed exactly
once.  This is what turns the run-length representation into *symbolic*
computation: a gate over two pattern vectors costs O(distinct symbol
pairs), not O(total bits).
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.aob import AoB
from repro.errors import EntanglementError
from repro.obs import runtime as _obs

#: Default bound on each gate memo table (entries).  Long RE-backend
#: runs keep streaming fresh symbol pairs; an unbounded memo would grow
#: with them forever.  2^16 entries is far above the working set of any
#: suite workload, so eviction never fires there and the memo counters
#: stay byte-deterministic.
MEMO_LIMIT = 1 << 16


class ChunkStore:
    """Hash-consing store for AoB chunk symbols of a fixed width.

    Symbol ids are small ints; id 0 is always the all-zeros chunk and id 1
    the all-ones chunk (mirroring the paper's suggestion of reserving
    constant registers ``@0`` = 0 and ``@1`` = 1).
    """

    def __init__(self, chunk_ways: int, memo_limit: int = MEMO_LIMIT):
        if chunk_ways < 0:
            raise EntanglementError(f"chunk_ways must be >= 0, got {chunk_ways}")
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
        self._chunks: list[AoB] = []
        self._ids: dict[AoB, int] = {}
        # crc32 of each interned chunk's payload, checked by chunk_safe so
        # a chunk corrupted after interning degrades instead of poisoning
        # the symbolic layer.
        self._crcs: list[int] = []
        self._binop_cache: dict[tuple[str, int, int], int] = {}
        self._not_cache: dict[int, int] = {}
        # Per-symbol measurement summaries, memoized lazily (LRU-bounded
        # under memo_limit like the gate tables).
        self._popcount: dict[int, int] = {}
        self._first_one: dict[int, int] = {}
        # Memo-table effectiveness (the RE compression win): always kept
        # as plain ints, published to telemetry only when it is active.
        self.gate_hits = 0
        self.gate_misses = 0
        #: Times chunk_safe had to degrade (bad symbol or digest mismatch).
        self.degraded = 0
        self.zero_id = self.intern(AoB.zeros(chunk_ways))
        self.one_id = self.intern(AoB.ones(chunk_ways))

    def __len__(self) -> int:
        return len(self._chunks)

    # -- interning ----------------------------------------------------------

    def intern(self, chunk: AoB) -> int:
        """Return the symbol id for ``chunk``, adding it if new."""
        if chunk.ways != self.chunk_ways:
            raise EntanglementError(
                f"chunk must be {self.chunk_ways}-way, got {chunk.ways}-way"
            )
        sym = self._ids.get(chunk)
        if sym is None:
            sym = len(self._chunks)
            self._chunks.append(chunk)
            self._ids[chunk] = sym
            self._crcs.append(zlib.crc32(chunk.words.tobytes()))
            if _obs.active:
                _obs.current().metrics.gauge("chunkstore.symbols").set(
                    len(self._chunks)
                )
        return sym

    def chunk(self, sym: int) -> AoB:
        """The AoB value of symbol ``sym``."""
        return self._chunks[sym]

    def chunk_safe(self, sym: int) -> AoB:
        """Fault-tolerant :meth:`chunk`: degrade on corruption, never crash.

        An out-of-range symbol (e.g. a bit flip in a run-length encoding)
        resolves to the all-zeros chunk; a chunk whose payload no longer
        matches its interning-time crc32 (a soft error in chunk memory) is
        accepted as dense ground truth again -- its digest is refreshed and
        every memoized result involving the symbol is purged, so the
        symbolic layer recomputes from the surviving bits instead of
        serving stale gate results.  Both paths bump :attr:`degraded` and
        the ``chunkstore.degraded`` telemetry counter.
        """
        if not 0 <= sym < len(self._chunks):
            self._degrade(f"symbol {sym} out of range")
            return self._chunks[self.zero_id]
        chunk = self._chunks[sym]
        crc = zlib.crc32(chunk.words.tobytes())
        if crc != self._crcs[sym]:
            self._degrade(f"symbol {sym} failed its integrity digest")
            self._reintern(sym, crc)
        return self._chunks[sym]

    def _degrade(self, detail: str) -> None:
        self.degraded += 1
        if _obs.active:
            _obs.current().metrics.counter("chunkstore.degraded").inc()

    def _reintern(self, sym: int, crc: int) -> None:
        """Adopt a mutated chunk's dense bits as the symbol's new value."""
        self._crcs[sym] = crc
        self._binop_cache = {
            key: result
            for key, result in self._binop_cache.items()
            if sym not in (key[1], key[2], result)
        }
        self._not_cache = {
            a: b for a, b in self._not_cache.items() if sym not in (a, b)
        }
        self._popcount.pop(sym, None)
        self._first_one.pop(sym, None)
        # The hash-consing index keys chunks by content; rebuild it so the
        # mutated value resolves to this symbol (first occurrence wins).
        self._ids = {}
        for i, chunk in enumerate(self._chunks):
            self._ids.setdefault(chunk, i)

    # -- checkpoint support ---------------------------------------------------

    def chunks(self) -> list[AoB]:
        """Every interned chunk, in symbol-id order (for checkpointing)."""
        return list(self._chunks)

    def restore_chunks(self, chunk_words) -> None:
        """Rebuild the store from dense chunk payloads, id order preserved.

        ``chunk_words`` is a sequence of uint64 word arrays as captured by
        :meth:`chunks` (one per symbol).  All memo tables are dropped --
        they may reference symbols whose values changed.
        """
        chunks = [
            AoB(self.chunk_ways, np.array(words, dtype=np.uint64, copy=True))
            for words in chunk_words
        ]
        if len(chunks) < 2:
            raise EntanglementError(
                "restore_chunks needs at least the two constant chunks"
            )
        self._chunks = chunks
        self._ids = {}
        for i, chunk in enumerate(chunks):
            self._ids.setdefault(chunk, i)
        self._crcs = [zlib.crc32(c.words.tobytes()) for c in chunks]
        self._binop_cache.clear()
        self._not_cache.clear()
        self._popcount.clear()
        self._first_one.clear()

    def hadamard(self, k: int) -> int:
        """Symbol id of the ``H(k)`` pattern restricted to one chunk."""
        return self.intern(AoB.hadamard(self.chunk_ways, k))

    # -- memoized gate operations --------------------------------------------

    def binop(self, op: str, a: int, b: int) -> int:
        """Apply gate ``op`` in {'and','or','xor'} to symbols ``a``, ``b``."""
        if op in ("and", "or", "xor") and a > b:
            a, b = b, a  # all three gates are commutative: halve the cache
        key = (op, a, b)
        cache = self._binop_cache
        sym = cache.pop(key, None)
        if sym is not None:
            cache[key] = sym  # re-append: most recently used
            self._count_gate(hit=True)
            return sym
        self._count_gate(hit=False)
        ca, cb = self._chunks[a], self._chunks[b]
        if op == "and":
            result = ca & cb
        elif op == "or":
            result = ca | cb
        elif op == "xor":
            result = ca ^ cb
        else:
            raise ValueError(f"unknown chunk binop {op!r}")
        sym = self.intern(result)
        self._memo_insert(cache, key, sym, "binop")
        return sym

    def bnot(self, a: int) -> int:
        """Apply NOT to symbol ``a``."""
        cache = self._not_cache
        sym = cache.pop(a, None)
        if sym is not None:
            cache[a] = sym  # re-append: most recently used
            self._count_gate(hit=True)
            return sym
        self._count_gate(hit=False)
        sym = self.intern(~self._chunks[a])
        self._memo_insert(cache, a, sym, "not")
        self._memo_insert(cache, sym, a, "not")  # involution
        return sym

    def _memo_insert(self, cache: dict, key, value, table: str) -> None:
        """Insert one memo entry, evicting the least recently used past
        :attr:`memo_limit` (dict order = recency: hits re-append)."""
        cache[key] = value
        if len(cache) > self.memo_limit:
            cache.pop(next(iter(cache)))
            self.memo_evicted += 1
            self.memo_evicted_by[table] += 1
            if _obs.active:
                _obs.current().metrics.counter("chunkstore.memo.evicted").inc()

    def _count_gate(self, hit: bool) -> None:
        """One memoized-gate lookup: hit = a whole chunk op avoided."""
        if hit:
            self.gate_hits += 1
            if _obs.active:
                metrics = _obs.current().metrics
                metrics.counter("chunkstore.binop.hit").inc()
                # Each hit skips recomputing (and re-storing) one chunk.
                metrics.counter("chunkstore.bytes_saved").add(
                    self.chunk_bits >> 3
                )
        else:
            self.gate_misses += 1
            if _obs.active:
                _obs.current().metrics.counter("chunkstore.binop.miss").inc()

    # -- memoized measurement summaries ---------------------------------------

    def popcount(self, sym: int) -> int:
        """Number of 1 bits in symbol ``sym``."""
        count = self._popcount.pop(sym, None)
        if count is not None:
            self._popcount[sym] = count  # re-append: most recently used
            return count
        count = self.chunk_safe(sym).popcount()
        self._memo_insert(self._popcount, sym, count, "measure")
        return count

    def first_one(self, sym: int) -> int:
        """Lowest channel holding a 1 within the chunk, or -1 if none."""
        first = self._first_one.pop(sym, None)
        if first is not None:
            self._first_one[sym] = first  # re-append: most recently used
            return first
        chunk = self.chunk_safe(sym)
        if chunk.meas(0):
            first = 0
        else:
            nxt = chunk.next(0)
            first = nxt if nxt else -1
        self._memo_insert(self._first_one, sym, first, "measure")
        return first

    def stats(self) -> dict:
        """Diagnostics: store size, cache hit surface, and memo hit rate."""
        return {
            "symbols": len(self._chunks),
            "binop_cache": len(self._binop_cache),
            "not_cache": len(self._not_cache),
            "gate_hits": self.gate_hits,
            "gate_misses": self.gate_misses,
            "memo_limit": self.memo_limit,
            "memo_evicted": self.memo_evicted,
            "memo_evicted_binop": self.memo_evicted_by["binop"],
            "memo_evicted_not": self.memo_evicted_by["not"],
            "memo_evicted_measure": self.memo_evicted_by["measure"],
            "degraded": self.degraded,
        }
