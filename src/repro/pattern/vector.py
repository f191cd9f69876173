"""Run-length compressed pattern vectors (the paper's RE representation).

A :class:`PatternVector` of ``ways``-way entanglement holds :math:`2^{ways}`
bits as a run-length list ``[(symbol, count), ...]`` of interned chunk
symbols, each chunk being :math:`2^{chunk\\_ways}` bits held as a Python
``int`` by the :class:`~repro.pattern.chunkstore.ChunkStore`.  It exposes the
same operation set as :class:`repro.aob.AoB` so the word-level PBP layer
(:mod:`repro.pbp`) can use either substrate interchangeably.

The exponential win the paper describes (section 1.2) falls out directly:
``H(k)`` for ``k >= chunk_ways`` is two runs regardless of ``ways``, and
gate operations walk runs, touching each *distinct* chunk pair once via the
store's memo table.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import groupby
from operator import itemgetter

from repro.aob import AoB
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import EntanglementError, MeasurementError
from repro.obs import runtime as _obs
from repro.pattern.chunkstore import ChunkStore

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
    """Chunks covering a ``ways``-way vector, validating both widths."""
    if store.chunk_ways < 6:
        raise EntanglementError(
            "PatternVector requires chunk_ways >= 6 (whole-word chunks)"
        )
    if ways < store.chunk_ways:
        raise EntanglementError(
            f"ways ({ways}) must be >= chunk_ways ({store.chunk_ways}); "
            "use repro.aob.AoB for narrower values"
        )
    return 1 << (ways - store.chunk_ways)


def _coalesce(runs) -> Runs:
    """Drop empty runs and merge adjacent runs of one symbol."""
    nonempty = (run for run in runs if run[1])
    return tuple((sym, sum(count for _, count in group))
                 for sym, group in groupby(nonempty, itemgetter(0)))


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
        _check_ways(ways, store)
        self.ways = ways
        self.nbits = 1 << ways
        self.store = store
        self.runs = _coalesce(runs)
        total = sum(count for _, count in self.runs)
        if total != self.num_chunks:
            raise EntanglementError(
                f"runs cover {total} chunks, expected {self.num_chunks}"
            )

    def _wrap(self, runs: Runs) -> "PatternVector":
        """This vector's shape over coalesced ``runs`` covering every chunk."""
        out = object.__new__(PatternVector)
        out.ways, out.nbits, out.store, out.runs = \
            self.ways, self.nbits, self.store, runs
        return out

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
        runs = ((store.zero_id, run_len), (store.one_id, run_len))
        return cls(ways, runs * (nchunks // run_len // 2), store)

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
        nchunks = _check_ways(ways, store)
        step = (1 << cw) >> 3  # bytes per chunk
        raw = aob.to_int().to_bytes(aob.nbits >> 3, "little")
        runs = [
            (store.intern_int(int.from_bytes(raw[i : i + step], "little")), 1)
            for i in range(0, len(raw), step)
        ]
        runs.append((store.zero_id, nchunks - len(runs)))  # zero padding
        return cls(ways, tuple(runs), store)

    # -- expansion -------------------------------------------------------------

    def to_aob(self) -> AoB:
        """Dense expansion (only for widths the AoB type supports)."""
        if self.ways > MAX_DENSE_WAYS:
            raise EntanglementError(
                f"{self.ways}-way is too wide to expand densely"
            )
        step = self.store.chunk_bits >> 3  # bytes per chunk
        raw = b"".join(
            self.store.chunk_int_safe(sym).to_bytes(step, "little") * count
            for sym, count in self.runs
        )
        return AoB(self.ways, int.from_bytes(raw, "little"))

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
        return self._wrap(tuple(out))

    def binop(self, op: str, other: "PatternVector") -> "PatternVector":
        """Apply gate ``op`` in {'and', 'or', 'xor'} (run-merge walk)."""
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

    def _find(self, channel: int) -> tuple[int, int, int, int]:
        """(run index, its first chunk, chunk, offset) of ``channel``."""
        cw = self.store.chunk_ways
        chunk, base = channel >> cw, 0
        for i, (_, count) in enumerate(self.runs):
            if chunk < base + count:
                return i, base, chunk, channel & ((1 << cw) - 1)
            base += count
        raise MeasurementError(f"channel {channel} out of range")

    def meas(self, channel: int) -> int:
        """Bit at entanglement ``channel`` (non-destructive)."""
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        run_idx, _, _, off = self._find(channel & (self.nbits - 1))
        value = self.store.chunk_int_safe(self.runs[run_idx][0])
        if _obs.active:
            _obs.current().qat_kernel("meas", 1)
        return (value >> off) & 1

    def next(self, channel: int) -> int:
        """Lowest channel ``> channel`` holding a 1, else 0."""
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        start = channel + 1
        if start >= self.nbits:
            return 0
        store = self.store
        chunk_bits = store.chunk_bits
        run_idx, run_base, q, r = self._find(start)
        # Partial first chunk: bits >= r (a meas of r, then a next).
        sym = self.runs[run_idx][0]
        above = store.chunk_int_safe(sym) >> r << r
        if _obs.active:
            telemetry = _obs.current()
            telemetry.qat_kernel("meas", 1)
            if not above >> r & 1:
                telemetry.qat_kernel("next", store.chunk_words)
        if above:
            return q * chunk_bits + (above & -above).bit_length() - 1
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
        run_idx, run_base, q, r = self._find(start)
        sym = self.runs[run_idx][0]
        count = (store.chunk_int_safe(sym) >> r).bit_count()
        if _obs.active:
            _obs.current().qat_kernel("pop" if r else "popcount",
                                      store.chunk_words)
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
        store = self.store
        run_idx, run_base, ci, off = self._find(channel & (self.nbits - 1))
        sym, count = self.runs[run_idx]
        flipped = store.intern_int(store.chunk_int_safe(sym) ^ (1 << off))
        before = ci - run_base  # the constructor drops empty pieces
        split = ((sym, before), (flipped, 1), (sym, count - before - 1))
        runs = self.runs[:run_idx] + split + self.runs[run_idx + 1 :]
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
        mine = [(self.store.chunk_int(s), n) for s, n in self.runs]
        return mine == [(other.store.chunk_int(s), n) for s, n in other.runs]

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
