"""Run-length compressed pattern vectors (the paper's RE representation).

A :class:`PatternVector` of ``ways``-way entanglement holds :math:`2^{ways}`
bits as a run-length list ``[(symbol, count), ...]`` of interned AoB chunk
symbols, each chunk being :math:`2^{chunk\\_ways}` bits.  It exposes the
same operation set as :class:`repro.aob.AoB` so the word-level PBP layer
(:mod:`repro.pbp`) can use either substrate interchangeably.

The exponential win the paper describes (section 1.2) falls out directly:
``H(k)`` for ``k >= chunk_ways`` is two runs regardless of ``ways``, and
gate operations walk runs, touching each *distinct* chunk pair once via the
store's memo table.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.aob import AoB
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import EntanglementError, MeasurementError
from repro.pattern.chunkstore import ChunkStore
from repro.utils.bits import WORD_BITS

#: Chunk width used by the paper's full-scale design: 65,536-bit symbols.
PAPER_CHUNK_WAYS = 16

_default_stores: dict[int, ChunkStore] = {}


def default_store(chunk_ways: int = PAPER_CHUNK_WAYS) -> ChunkStore:
    """Process-wide shared :class:`ChunkStore` for a given chunk width."""
    store = _default_stores.get(chunk_ways)
    if store is None:
        store = ChunkStore(chunk_ways)
        _default_stores[chunk_ways] = store
    return store


def reset_default_stores() -> None:
    """Drop every process-wide shared store.

    The shared stores accumulate interned chunks and memo hit/miss
    counts for the life of the process, which silently couples runs that
    should be independent: a counter capture warmed by the previous one,
    or a fault-campaign seed whose chunkstore counters depend on the
    seeds run before it.  Callers that promise per-run isolation (the
    exact counter-baseline test, campaign byte-reproducibility) call
    this between runs; vectors built against
    a dropped store keep working -- they hold their own reference -- but
    new ``default_store()`` callers start from a pristine store.
    """
    _default_stores.clear()


Runs = tuple[tuple[int, int], ...]


def _check_ways(ways: int, store: ChunkStore) -> int:
    """Chunks covering a ``ways``-way vector, validating the width."""
    if ways < store.chunk_ways:
        raise EntanglementError(
            f"ways ({ways}) must be >= chunk_ways ({store.chunk_ways}); "
            "use repro.aob.AoB for narrower values"
        )
    return 1 << (ways - store.chunk_ways)


def _coalesce(runs: list[tuple[int, int]]) -> Runs:
    out: list[tuple[int, int]] = []
    for sym, count in runs:
        if count == 0:
            continue
        if out and out[-1][0] == sym:
            out[-1] = (sym, out[-1][1] + count)
        else:
            out.append((sym, count))
    return tuple(out)


class PatternVector:
    """An E-way entangled pbit value in run-length compressed form.

    Parameters
    ----------
    ways:
        Total entanglement degree; must be at least the store's chunk
        width (use plain :class:`AoB` below that).
    runs:
        Run-length encoding ``((symbol, chunk_count), ...)``; counts must
        sum to :math:`2^{ways - chunk\\_ways}`.
    store:
        The :class:`ChunkStore` owning the symbols; defaults to the shared
        per-width store.
    """

    __slots__ = ("ways", "nbits", "store", "runs")

    def __init__(self, ways: int, runs: Runs, store: ChunkStore | None = None):
        store = store or default_store()
        if store.chunk_ways < 6:
            raise EntanglementError(
                "PatternVector requires chunk_ways >= 6 (whole-word chunks)"
            )
        if ways < store.chunk_ways:
            raise EntanglementError(
                f"ways ({ways}) must be >= chunk_ways ({store.chunk_ways}); "
                "use repro.aob.AoB for narrower values"
            )
        self.ways = ways
        self.nbits = 1 << ways
        self.store = store
        self.runs = _coalesce(list(runs))
        total = sum(count for _, count in self.runs)
        if total != self.num_chunks:
            raise EntanglementError(
                f"runs cover {total} chunks, expected {self.num_chunks}"
            )

    # -- construction ---------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        """Number of chunk symbols the dense expansion would need."""
        return 1 << (self.ways - self.store.chunk_ways)

    @classmethod
    def zeros(cls, ways: int, store: ChunkStore | None = None) -> "PatternVector":
        """Constant pbit 0."""
        store = store or default_store()
        nchunks = _check_ways(ways, store)
        return cls(ways, ((store.zero_id, nchunks),), store)

    @classmethod
    def ones(cls, ways: int, store: ChunkStore | None = None) -> "PatternVector":
        """Constant pbit 1."""
        store = store or default_store()
        nchunks = _check_ways(ways, store)
        return cls(ways, ((store.one_id, nchunks),), store)

    @classmethod
    def constant(cls, ways: int, bit: int, store: ChunkStore | None = None) -> "PatternVector":
        """Constant pbit ``bit``."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        return cls.ones(ways, store) if bit else cls.zeros(ways, store)

    @classmethod
    def hadamard(cls, ways: int, k: int, store: ChunkStore | None = None) -> "PatternVector":
        """Standard entangled superposition ``H(k)`` at any entanglement.

        For ``k < chunk_ways`` this is a single run of the in-chunk ``H(k)``
        symbol; for ``k >= chunk_ways`` it alternates zero-chunk and
        one-chunk runs of length :math:`2^{k - chunk\\_ways}` -- storage is
        O(number of runs), independent of :math:`2^{ways}`.
        """
        store = store or default_store()
        cw = store.chunk_ways
        nchunks = _check_ways(ways, store)
        if k >= ways:
            return cls.zeros(ways, store)
        if k < cw:
            return cls(ways, ((store.hadamard(k), nchunks),), store)
        run_len = 1 << (k - cw)
        runs = []
        for i in range(nchunks // run_len):
            runs.append((store.one_id if i & 1 else store.zero_id, run_len))
        return cls(ways, tuple(runs), store)

    @classmethod
    def from_aob(cls, aob: AoB, ways: int | None = None, store: ChunkStore | None = None) -> "PatternVector":
        """Compress a dense AoB (optionally zero-extended to ``ways``)."""
        store = store or default_store()
        cw = store.chunk_ways
        if aob.ways < cw:
            raise EntanglementError(
                f"AoB is {aob.ways}-way but chunks are {cw}-way"
            )
        if ways is None:
            ways = aob.ways
        if ways < aob.ways:
            raise EntanglementError("cannot truncate an AoB into fewer ways")
        words_per_chunk = (1 << cw) // WORD_BITS
        runs: list[tuple[int, int]] = []
        src = aob.words
        for i in range(aob.nbits // (1 << cw)):
            chunk = AoB(cw, src[i * words_per_chunk : (i + 1) * words_per_chunk])
            runs.append((store.intern(chunk), 1))
        pad = (1 << (ways - cw)) - len(runs)
        if pad:
            runs.append((store.zero_id, pad))
        return cls(ways, tuple(runs), store)

    # -- expansion -------------------------------------------------------------

    def to_aob(self) -> AoB:
        """Dense expansion (only for widths the AoB type supports)."""
        if self.ways > MAX_DENSE_WAYS:
            raise EntanglementError(
                f"{self.ways}-way is too wide to expand densely"
            )
        words_per_chunk = self.store.chunk_bits // WORD_BITS
        out = np.empty(self.num_chunks * words_per_chunk, dtype=np.uint64)
        pos = 0
        for sym, count in self.runs:
            chunk_words = self.store.chunk_safe(sym).words
            for _ in range(count):
                out[pos : pos + words_per_chunk] = chunk_words
                pos += words_per_chunk
        return AoB(self.ways, out)

    # -- gate operations --------------------------------------------------------

    def _check_compatible(self, other: "PatternVector") -> None:
        if not isinstance(other, PatternVector):
            raise TypeError(f"expected PatternVector, got {type(other).__name__}")
        if other.store is not self.store:
            raise EntanglementError("operands must share a ChunkStore")
        if other.ways != self.ways:
            raise EntanglementError(
                f"mismatched entanglement: {self.ways}-way vs {other.ways}-way"
            )

    def _merge(self, other: "PatternVector", op: str) -> "PatternVector":
        self._check_compatible(other)
        store = self.store
        out: list[tuple[int, int]] = []
        ia = ib = 0
        sa, na = self.runs[0]
        sb, nb = other.runs[0]
        while True:
            take = na if na < nb else nb
            sym = store.binop(op, sa, sb)
            if out and out[-1][0] == sym:
                out[-1] = (sym, out[-1][1] + take)
            else:
                out.append((sym, take))
            na -= take
            nb -= take
            if na == 0:
                ia += 1
                if ia == len(self.runs):
                    break
                sa, na = self.runs[ia]
            if nb == 0:
                ib += 1
                sb, nb = other.runs[ib]
        return PatternVector(self.ways, tuple(out), store)

    def binop(self, op: str, other: "PatternVector") -> "PatternVector":
        """Apply gate ``op`` in {'and', 'or', 'xor'} (run-merge walk)."""
        if op not in ("and", "or", "xor"):
            raise ValueError(f"unknown pattern binop {op!r}")
        return self._merge(other, op)

    def __and__(self, other: "PatternVector") -> "PatternVector":
        return self._merge(other, "and")

    def __or__(self, other: "PatternVector") -> "PatternVector":
        return self._merge(other, "or")

    def __xor__(self, other: "PatternVector") -> "PatternVector":
        return self._merge(other, "xor")

    def __invert__(self) -> "PatternVector":
        store = self.store
        runs = tuple((store.bnot(sym), count) for sym, count in self.runs)
        return PatternVector(self.ways, runs, store)

    def cnot(self, ctrl: "PatternVector") -> "PatternVector":
        """Controlled NOT (``self ^= ctrl``)."""
        return self ^ ctrl

    def ccnot(self, b: "PatternVector", c: "PatternVector") -> "PatternVector":
        """Toffoli (``self ^= AND(b, c)``)."""
        return self ^ (b & c)

    def cswap(self, other: "PatternVector", ctrl: "PatternVector") -> tuple["PatternVector", "PatternVector"]:
        """Fredkin gate on compressed vectors."""
        diff = (self ^ other) & ctrl
        return self ^ diff, other ^ diff

    # -- measurement -------------------------------------------------------------

    def _locate(self, chunk_index: int) -> tuple[int, int]:
        """Return (run index, first chunk index of that run)."""
        base = 0
        for i, (_, count) in enumerate(self.runs):
            if chunk_index < base + count:
                return i, base
            base += count
        raise MeasurementError(f"chunk index {chunk_index} out of range")

    def meas(self, channel: int) -> int:
        """Bit at entanglement ``channel`` (non-destructive)."""
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        channel &= self.nbits - 1
        cw = self.store.chunk_ways
        run_idx, _ = self._locate(channel >> cw)
        sym = self.runs[run_idx][0]
        return self.store.chunk_safe(sym).meas(channel & ((1 << cw) - 1))

    def next(self, channel: int) -> int:
        """Lowest channel ``> channel`` holding a 1, else 0."""
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        start = channel + 1
        if start >= self.nbits:
            return 0
        store = self.store
        cw = store.chunk_ways
        chunk_bits = 1 << cw
        q, r = start >> cw, start & (chunk_bits - 1)
        run_idx, run_base = self._locate(q)
        # Partial first chunk: bits >= r.
        sym = self.runs[run_idx][0]
        chunk = store.chunk_safe(sym)
        if chunk.meas(r):
            return q * chunk_bits + r
        hit = chunk.next(r)
        if hit:
            return q * chunk_bits + hit
        # Remaining chunks of the containing run share the symbol.
        remaining = run_base + self.runs[run_idx][1] - (q + 1)
        if remaining > 0 and store.first_one(sym) >= 0:
            return (q + 1) * chunk_bits + store.first_one(sym)
        base = run_base + self.runs[run_idx][1]
        for sym2, count in self.runs[run_idx + 1 :]:
            first = store.first_one(sym2)
            if first >= 0:
                return base * chunk_bits + first
            base += count
        return 0

    def pop_after(self, channel: int) -> int:
        """Count of 1s in channels ``> channel``."""
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        start = channel + 1
        if start >= self.nbits:
            return 0
        store = self.store
        cw = store.chunk_ways
        chunk_bits = 1 << cw
        q, r = start >> cw, start & (chunk_bits - 1)
        run_idx, run_base = self._locate(q)
        sym = self.runs[run_idx][0]
        chunk = store.chunk_safe(sym)
        count = chunk.popcount() if r == 0 else chunk.pop_after(r - 1)
        remaining = run_base + self.runs[run_idx][1] - (q + 1)
        count += remaining * store.popcount(sym)
        for sym2, run_count in self.runs[run_idx + 1 :]:
            count += run_count * store.popcount(sym2)
        return count

    def popcount(self) -> int:
        """Total number of 1 channels (O(runs))."""
        return sum(count * self.store.popcount(sym) for sym, count in self.runs)

    # -- single-channel mutation (fault injection) ------------------------------

    def with_flipped_bit(self, channel: int) -> "PatternVector":
        """New vector with entanglement ``channel`` inverted (copy-on-write).

        The containing run is split around the affected chunk and a
        freshly interned flipped chunk takes its place, so the original
        symbol -- possibly shared by other runs, registers or machines --
        is never mutated.  This is how soft errors address the
        compressed substrate without corrupting interned chunks
        (contrast :func:`repro.faults.inject.flip_chunk_bit`, which
        deliberately corrupts chunk memory itself).
        """
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        channel &= self.nbits - 1
        store = self.store
        cw = store.chunk_ways
        ci, off = channel >> cw, channel & ((1 << cw) - 1)
        run_idx, run_base = self._locate(ci)
        sym, count = self.runs[run_idx]
        words = store.chunk_safe(sym).words.copy()
        words[off >> 6] ^= np.uint64(1 << (off & (WORD_BITS - 1)))
        flipped = store.intern(AoB(cw, words))
        before = ci - run_base
        split = [(sym, before), (flipped, 1), (sym, count - before - 1)]
        runs = (
            self.runs[:run_idx]
            + tuple(piece for piece in split if piece[1])
            + self.runs[run_idx + 1 :]
        )
        return PatternVector(self.ways, runs, store)

    def any(self) -> bool:
        """ANY reduction in O(runs)."""
        return any(sym != self.store.zero_id for sym, _ in self.runs)

    def all(self) -> bool:
        """ALL reduction in O(runs)."""
        return all(sym == self.store.one_id for sym, _ in self.runs)

    def probability(self) -> float:
        """Probability this pbit measures 1."""
        return self.popcount() / self.nbits

    def iter_ones(self) -> Iterator[int]:
        """Iterate every 1 channel via the ``meas``/``next`` protocol."""
        if self.meas(0):
            yield 0
        chan = 0
        while True:
            chan = self.next(chan)
            if chan == 0:
                return
            yield chan

    # -- diagnostics ----------------------------------------------------------------

    @property
    def num_runs(self) -> int:
        """Length of the run-length encoding."""
        return len(self.runs)

    def storage_chunks(self) -> int:
        """Distinct chunk symbols this value references."""
        return len({sym for sym, _ in self.runs})

    def compression_ratio(self) -> float:
        """Dense chunk count divided by run count (>= 1; higher = better)."""
        return self.num_chunks / len(self.runs)

    # -- value protocol ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternVector):
            return NotImplemented
        if self.ways != other.ways:
            return False
        if self.store is other.store:
            return self.runs == other.runs
        mine = [(self.store.chunk(sym), count) for sym, count in self.runs]
        theirs = [(other.store.chunk(sym), count) for sym, count in other.runs]
        return mine == theirs

    def __hash__(self) -> int:
        return hash((self.ways, self.runs, id(self.store)))

    def __len__(self) -> int:
        return self.nbits

    def __getitem__(self, channel: int) -> int:
        return self.meas(channel)

    def __repr__(self) -> str:
        body = " ".join(
            f"s{sym}^{count}" if count > 1 else f"s{sym}" for sym, count in self.runs[:8]
        )
        if len(self.runs) > 8:
            body += " ..."
        return f"PatternVector(ways={self.ways}, runs=[{body}])"
