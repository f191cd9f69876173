"""Segment-compressed pattern vectors (the paper's RE representation).

A :class:`PatternVector` of ``ways``-way entanglement holds :math:`2^{ways}`
bits as :math:`2^{ways - chunk\\_ways}` chunks of :math:`2^{chunk\\_ways}`
bits, each a Python ``int``.  The chunks fall into aligned *blocks* of
equal size: at most :data:`LITERAL_BITS` bits and at most half the
vector (one chunk when chunks are that wide).  The vector is a tuple of
*segments*, each a pair ``(value, n)``:

- a *repeat* (``n > 0``): the chunk int ``value`` repeated ``n`` times,
  covering whole blocks in which every chunk is ``value``;
- a *literal* (``n < 0``): one block whose ``-n`` chunks are not all
  equal, packed into the one int ``value`` (chunk ``i`` at bit
  ``i * chunk_bits``).

The form is canonical -- a uniform block is always part of a repeat,
and adjacent repeats of one chunk always coalesce -- so equal values
have equal segments and compare by ``==``.  :attr:`PatternVector.runs`
expands the literals into the run-length view ``((chunk, count), ...)``.

The :class:`~repro.pattern.chunkstore.ChunkStore` supplies the chunk
width and the gates.  A gate walks the two segment lists and applies one
store gate per overlapping pair of segments: two repeats give a repeat,
and a literal meets the other side's literal, or its repeat widened to a
block by shift-or doubling, in one big-int op -- so a block of distinct
chunks costs one gate, not one per chunk.  ``H(k)`` for ``k`` past the
block is two repeats regardless of ``ways``, the exponential win of
section 1.2.  It exposes the same operation set as
:class:`repro.aob.AoB` so the word-level PBP layer (:mod:`repro.pbp`)
can use either substrate interchangeably.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.aob import AoB
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import EntanglementError, MeasurementError
from repro.obs import runtime as _obs
from repro.pattern.chunkstore import ChunkStore

#: Chunk width used by the paper's full-scale design: 65,536-bit symbols.
PAPER_CHUNK_WAYS = 16

#: Widest block, so widest literal, in bits.  It bounds the cost of one
#: gate or readout on a literal and the size of any one int a vector
#: holds; chunks this wide or wider are never packed.
LITERAL_BITS = 1 << PAPER_CHUNK_WAYS

Runs = tuple[tuple[int, int], ...]
Segments = tuple[tuple[int, int], ...]


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


def _block_chunks(nchunks: int, chunk_ways: int) -> int:
    """Chunks per block of an ``nchunks``-chunk vector: at most
    :data:`LITERAL_BITS` bits and at most half the vector, so the two
    halves of ``H(ways - 1)`` are always repeats."""
    return max(1, min(LITERAL_BITS >> chunk_ways, nchunks >> 1))


def repeat_chunk(chunk: int, count: int, chunk_bits: int) -> int:
    """``count`` copies of ``chunk`` packed into one int (shift-or
    doubling: O(log count) big-int ops)."""
    out = pos = 0
    width = chunk_bits
    while True:
        if count & 1:
            out |= chunk << pos
            pos += width
        count >>= 1
        if not count:
            return out
        chunk |= chunk << width
        width <<= 1


def _uniform(value: int, block: int, chunk_bits: int) -> int | None:
    """The chunk a ``block``-chunk ``value`` repeats, or None if its
    chunks differ.  Comparing the first and last chunks rejects most
    mixed blocks without a pass over the block."""
    first = value & ((1 << chunk_bits) - 1)
    if value >> ((block - 1) * chunk_bits) != first:
        return None
    if value == repeat_chunk(first, block, chunk_bits):
        return first
    return None


def _segments(pieces, block: int, chunk_bits: int) -> Segments:
    """Canonical segments of ``pieces`` in channel order: ``(chunk, n)``
    repeats of whole blocks, and ``(value, -block)`` blocks of any
    content, which become repeats where uniform."""
    out: list[tuple[int, int]] = []
    last = None  # the chunk of the last segment, if a repeat
    for value, n in pieces:
        if n < 0:
            chunk = _uniform(value, block, chunk_bits)
            if chunk is None:
                out.append((value, n))
                last = None
                continue
            value, n = chunk, block
        if value == last:
            out[-1] = (value, out[-1][1] + n)
        else:
            out.append((value, n))
            last = value
    return tuple(out)


class PatternVector:
    """An E-way entangled pbit value in segment-compressed form.

    Parameters
    ----------
    ways:
        Total entanglement degree; must be at least the store's chunk
        width (use plain :class:`AoB` below that).
    runs:
        Run-length encoding ``((chunk int, chunk_count), ...)``; counts
        must sum to :math:`2^{ways - chunk\\_ways}`.
    store:
        The :class:`ChunkStore` giving the chunk width and gates: the one
        store of the simulation or context the vector belongs to.
    """

    __slots__ = ("ways", "nbits", "store", "segments")

    def __init__(self, ways: int, runs: Runs, store: ChunkStore):
        nchunks = _check_ways(ways, store)
        self.ways = ways
        self.nbits = 1 << ways
        self.store = store
        block = _block_chunks(nchunks, store.chunk_ways)
        step = store.chunk_bits >> 3  # bytes per chunk
        pieces = []
        partial: list[bytes] = []  # chunks of a block not yet whole
        filled = total = 0
        for chunk, count in runs:
            if count < 0:
                raise EntanglementError(f"negative run count {count}")
            total += count
            if filled and count:
                take = min(count, block - filled)
                partial.append(chunk.to_bytes(step, "little") * take)
                filled += take
                count -= take
                if filled == block:
                    pieces.append((int.from_bytes(b"".join(partial),
                                                  "little"), -block))
                    partial, filled = [], 0
            whole = count - count % block
            if whole:
                pieces.append((chunk, whole))
            if count - whole:
                partial.append(chunk.to_bytes(step, "little")
                               * (count - whole))
                filled = count - whole
        if total != nchunks:
            raise EntanglementError(
                f"runs cover {total} chunks, expected {nchunks}"
            )
        self.segments = _segments(pieces, block, store.chunk_bits)

    @classmethod
    def _of(cls, ways: int, segments: Segments,
            store: ChunkStore) -> "PatternVector":
        """A vector over canonical ``segments`` covering every chunk."""
        out = object.__new__(cls)
        out.ways, out.nbits, out.store, out.segments = \
            ways, 1 << ways, store, segments
        return out

    # -- construction ---------------------------------------------------------

    @property
    def num_chunks(self) -> int:
        """Number of chunks the dense expansion would need."""
        return 1 << (self.ways - self.store.chunk_ways)

    @classmethod
    def zeros(cls, ways: int, store: ChunkStore) -> "PatternVector":
        """Constant pbit 0."""
        nchunks = _check_ways(ways, store)
        return cls._of(ways, ((store.zero_id, nchunks),), store)

    @classmethod
    def ones(cls, ways: int, store: ChunkStore) -> "PatternVector":
        """Constant pbit 1."""
        nchunks = _check_ways(ways, store)
        return cls._of(ways, ((store.one_id, nchunks),), store)

    @classmethod
    def constant(cls, ways: int, bit: int, store: ChunkStore) -> "PatternVector":
        """Constant pbit ``bit``."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        return cls.ones(ways, store) if bit else cls.zeros(ways, store)

    @classmethod
    def hadamard(cls, ways: int, k: int, store: ChunkStore) -> "PatternVector":
        """Standard entangled superposition ``H(k)`` at any entanglement.

        For ``k < chunk_ways`` this is one repeat of the in-chunk ``H(k)``
        chunk; where runs of :math:`2^{k - chunk\\_ways}` chunks fill
        whole blocks it alternates zero-chunk and one-chunk repeats --
        storage is O(number of segments), independent of
        :math:`2^{ways}` -- and below that every block is one shared
        literal.
        """
        cw = store.chunk_ways
        nchunks = _check_ways(ways, store)
        if k >= ways:
            return cls.zeros(ways, store)
        if k < cw:
            return cls._of(ways, ((store.hadamard(k), nchunks),), store)
        run_len = 1 << (k - cw)
        block = _block_chunks(nchunks, cw)
        if run_len >= block:
            runs = ((store.zero_id, run_len), (store.one_id, run_len))
            return cls._of(ways, runs * (nchunks // run_len // 2), store)
        # Shorter runs alternate within every block: one literal, shared.
        cb = store.chunk_bits
        period = repeat_chunk(store.one_id, run_len, cb) << (run_len * cb)
        literal = repeat_chunk(period, block // run_len // 2, 2 * run_len * cb)
        return cls._of(ways, ((literal, -block),) * (nchunks // block), store)

    @classmethod
    def from_aob(cls, aob: AoB, ways: int | None = None, *,
                 store: ChunkStore) -> "PatternVector":
        """Compress a dense AoB (optionally zero-extended to ``ways``)."""
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
        block = _block_chunks(nchunks, cw)
        width = block * (store.chunk_bits >> 3)  # bytes per block
        raw = aob.to_int().to_bytes(aob.nbits >> 3, "little")
        raw += bytes(-len(raw) % width)  # zero-extend to whole blocks
        pieces = [(int.from_bytes(raw[i:i + width], "little"), -block)
                  for i in range(0, len(raw), width)]
        padding = nchunks - len(raw) // width * block
        if padding:
            pieces.append((store.zero_id, padding))
        return cls._of(ways, _segments(pieces, block, store.chunk_bits),
                       store)

    # -- expansion -------------------------------------------------------------

    def to_aob(self) -> AoB:
        """Dense expansion (only for widths the AoB type supports)."""
        if self.ways > MAX_DENSE_WAYS:
            raise EntanglementError(
                f"{self.ways}-way is too wide to expand densely"
            )
        step = self.store.chunk_bits >> 3  # bytes per chunk
        raw = b"".join(
            value.to_bytes(step, "little") * n if n > 0
            else value.to_bytes(-n * step, "little")
            for value, n in self.segments
        )
        return AoB(self.ways, int.from_bytes(raw, "little"))

    @property
    def runs(self) -> Runs:
        """The run-length view ``((chunk, count), ...)``: every literal
        expanded into its chunks, and no two adjacent runs holding equal
        chunks."""
        step = self.store.chunk_bits >> 3
        out: list[tuple[int, int]] = []
        for value, n in self.segments:
            if n > 0:
                pieces = ((value, n),)
            else:
                raw = value.to_bytes(-n * step, "little")
                pieces = ((int.from_bytes(raw[i:i + step], "little"), 1)
                          for i in range(0, len(raw), step))
            for chunk, count in pieces:
                if out and out[-1][0] == chunk:
                    out[-1] = (chunk, out[-1][1] + count)
                else:
                    out.append((chunk, count))
        return tuple(out)

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
        sa, sb = self.segments, other.segments
        va, na = sa[0]
        vb, nb = sb[0]
        if len(sa) == 1 and len(sb) == 1:  # one repeat each
            store.count_results(0, 1)
            return PatternVector._of(self.ways,
                                     ((store.binop(op, va, vb), na),), store)
        binop = store.binop
        cb = store.chunk_bits
        block = _block_chunks(self.num_chunks, store.chunk_ways)
        xor = op == "xor"
        out: list[tuple[int, int]] = []
        last = None  # the chunk of the last segment, if a repeat
        hits = ia = ib = 0
        wa = wb = None  # the current repeats widened to a block
        while True:
            # ``na``/``nb``: chunks left of a repeat, or -block of a literal.
            if na > 0 and nb > 0:
                take = na if na < nb else nb
                chunk = binop(op, va, vb)
                na -= take
                nb -= take
            else:
                take = block
                both = na < 0 and nb < 0
                if na < 0:
                    x, na = va, 0
                else:
                    if wa is None:
                        wa = repeat_chunk(va, block, cb)
                    x, na = wa, na - block
                if nb < 0:
                    y, nb = vb, 0
                else:
                    if wb is None:
                        wb = repeat_chunk(vb, block, cb)
                    y, nb = wb, nb - block
                value = binop(op, x, y, block)
                # XOR with a uniform block leaves a mixed block mixed.
                chunk = (None if xor and not both
                         else _uniform(value, block, cb))
                if chunk is None:
                    out.append((value, -block))
                    last = None
            if chunk is not None:
                if chunk == last:
                    out[-1] = (chunk, out[-1][1] + take)
                    hits += 1
                else:
                    out.append((chunk, take))
                    last = chunk
            if not na:
                ia += 1
                if ia == len(sa):
                    break
                va, na = sa[ia]
                wa = None
            if not nb:
                ib += 1
                vb, nb = sb[ib]
                wb = None
        store.count_results(hits, len(out))
        return PatternVector._of(self.ways, tuple(out), store)

    def binop(self, op: str, other: "PatternVector") -> "PatternVector":
        """Apply gate ``op`` in {'and', 'or', 'xor'} (segment walk)."""
        return self._merge(other, op)

    def __and__(self, other: "PatternVector") -> "PatternVector":
        return self._merge(other, "and")

    def __or__(self, other: "PatternVector") -> "PatternVector":
        return self._merge(other, "or")

    def __xor__(self, other: "PatternVector") -> "PatternVector":
        return self._merge(other, "xor")

    def __invert__(self) -> "PatternVector":
        # NOT is a bijection on each chunk, so the segments stay
        # canonical: every result begins a new segment.
        store = self.store
        segments = tuple(
            (store.bnot(value), n) if n > 0 else (store.bnot(value, -n), n)
            for value, n in self.segments
        )
        store.count_results(0, len(segments))
        return PatternVector._of(self.ways, segments, store)

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

    def _find(self, chunk: int) -> tuple[int, int]:
        """(index, first chunk) of the segment holding ``chunk``."""
        base = 0
        for i, (_, n) in enumerate(self.segments):
            size = n if n > 0 else -n
            if chunk < base + size:
                return i, base
            base += size
        raise MeasurementError(f"chunk {chunk} out of range")

    def meas(self, channel: int) -> int:
        """Bit at entanglement ``channel`` (non-destructive)."""
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        channel &= self.nbits - 1
        cw = self.store.chunk_ways
        i, base = self._find(channel >> cw)
        value, n = self.segments[i]
        if _obs.active:
            _obs.current().qat_kernel("meas", 1)
        if n > 0:
            return (value >> (channel & ((1 << cw) - 1))) & 1
        return (value >> (channel - (base << cw))) & 1

    def next(self, channel: int) -> int:
        """Lowest channel ``> channel`` holding a 1, else 0."""
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        start = channel + 1
        if start >= self.nbits:
            return 0
        store = self.store
        cw = store.chunk_ways
        i, base = self._find(start >> cw)
        value, n = self.segments[i]
        pos = start - (base << cw)  # bit offset within the segment
        q = pos >> cw
        # Partial first chunk or literal tail: bits >= pos (a meas of
        # pos, then a next).
        above = value >> (pos & ((1 << cw) - 1) if n > 0 else pos)
        if _obs.active:
            telemetry = _obs.current()
            telemetry.qat_kernel("meas", 1)
            if not above & 1:
                telemetry.qat_kernel(
                    "next", store.chunk_words * (1 if n > 0 else -n - q))
        if above:
            return start + (above & -above).bit_length() - 1
        if n > 0:
            # Remaining chunks of the repeat hold the same chunk.
            if q + 1 < n:
                first = store.first_one(value)
                if first >= 0:
                    return ((base + q + 1) << cw) + first
        else:
            n = -n
        base += n
        for value, n in self.segments[i + 1:]:
            first = store.first_one(value, 1 if n > 0 else -n)
            if first >= 0:
                return (base << cw) + first
            base += n if n > 0 else -n
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
        i, base = self._find(start >> cw)
        value, n = self.segments[i]
        pos = start - (base << cw)
        if n > 0:
            q, r = pos >> cw, pos & ((1 << cw) - 1)
            count = (value >> r).bit_count()
            if _obs.active:
                _obs.current().qat_kernel("pop" if r else "popcount",
                                          store.chunk_words)
            count += (n - q - 1) * store.popcount(value)
        else:
            count = (value >> pos).bit_count()
            if _obs.active:
                _obs.current().qat_kernel("pop" if pos else "popcount",
                                          store.chunk_words
                                          * (-n - (pos >> cw)))
        for value, n in self.segments[i + 1:]:
            if n > 0:
                count += n * store.popcount(value)
            else:
                count += store.popcount(value, -n)
        return count

    def popcount(self) -> int:
        """Total number of 1 channels (O(segments))."""
        popcount = self.store.popcount
        return sum(n * popcount(value) if n > 0 else popcount(value, -n)
                   for value, n in self.segments)

    # -- single-channel mutation (fault injection) ------------------------------

    def with_flipped_bit(self, channel: int) -> "PatternVector":
        """New vector with entanglement ``channel`` inverted (copy-on-write).

        The containing repeat is split around the affected block, which
        becomes a literal (a literal is copied with the bit flipped), so
        every other segment, register or machine holding the original
        ints keeps its value.  This is how soft errors address the
        compressed substrate.
        """
        if channel < 0:
            raise MeasurementError(f"channel must be non-negative, got {channel}")
        channel &= self.nbits - 1
        store = self.store
        cw = store.chunk_ways
        block = _block_chunks(self.num_chunks, cw)
        i, base = self._find(channel >> cw)
        value, n = self.segments[i]
        if n > 0:
            before = ((channel >> cw) - base) // block * block
            wide = repeat_chunk(value, block, store.chunk_bits)
            flipped = ((value, before),
                       (wide ^ (1 << (channel - ((base + before) << cw))),
                        -block),
                       (value, n - before - block))
        else:
            flipped = ((value ^ (1 << (channel - (base << cw))), n),)
        pieces = (self.segments[:i] + tuple(p for p in flipped if p[1])
                  + self.segments[i + 1:])
        return PatternVector._of(
            self.ways, _segments(pieces, block, store.chunk_bits), store)

    def any(self) -> bool:
        """ANY reduction in O(segments)."""
        return any(value for value, _ in self.segments)

    def all(self) -> bool:
        """ALL reduction in O(segments)."""
        one = self.store.one_id
        return all(n > 0 and value == one for value, n in self.segments)

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
        """Number of segments (repeats and literals)."""
        return len(self.segments)

    def storage_chunks(self) -> int:
        """Distinct chunks this value references."""
        return len({sym for sym, _ in self.runs})

    def compression_ratio(self) -> float:
        """Dense chunk count divided by run count (>= 1; higher = better)."""
        return self.num_chunks / len(self.runs)

    # -- value protocol ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternVector):
            return NotImplemented
        return (self.ways == other.ways
                and self.store.chunk_ways == other.store.chunk_ways
                and self.segments == other.segments)

    def __hash__(self) -> int:
        return hash((self.ways, self.store.chunk_ways, self.segments))

    def __len__(self) -> int:
        return self.nbits

    def __getitem__(self, channel: int) -> int:
        return self.meas(channel)

    def __repr__(self) -> str:
        runs = self.runs
        body = " ".join(
            _label(sym) + (f"^{count}" if count > 1 else "")
            for sym, count in runs[:8]
        )
        if len(runs) > 8:
            body += " ..."
        return f"PatternVector(ways={self.ways}, runs=[{body}])"


def _label(chunk: int) -> str:
    """A chunk's hex value, its high digits elided past 8."""
    text = f"{chunk:x}"
    return "0x" + (text if len(text) <= 8 else "..." + text[-8:])
