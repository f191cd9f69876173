"""Pluggable Qat register-file substrates (the coprocessor "backend").

The paper's hardware implements the 256-register Qat file as dense
65,536-bit AoB rows; its scaling story (section 1.2 and the LCPC'20
software prototype) is that entanglement beyond the hardware width is
handled by run-length/RE compression.  This module makes that a
per-machine choice:

- :class:`DenseQatBackend` -- 256 Python ints, register ``r``'s bit
  ``e`` being its channel ``e``; each gate is one bitwise int op over
  the whole register.  Memory is :math:`O(2^{ways})` per register (an
  int holds bits up to its highest set one), so it is bounded by
  :data:`~repro.aob.bitvector.MAX_DENSE_WAYS`.
- :class:`REQatBackend` -- each register is a
  :class:`~repro.pattern.PatternVector` over the machine's own
  :class:`~repro.pattern.ChunkStore`; gates walk runs and memoize
  distinct chunk pairs, so ``had(k)`` and constant registers cost
  O(runs) and entanglement up to :data:`MAX_RE_WAYS` runs in bounded
  memory.  The lanes of a ``--batch`` campaign share one store and one
  gate memo (:class:`SharedREStore`), so a gate runs once per distinct
  operand tuple across the batch.

Both backends expose the full Table 3 op set used by
:mod:`repro.cpu.exec_core` plus snapshot/restore (checkpointing) and
single-bit flips (fault injection), so the simulators, the checkpoint
layer and the fault campaigns are substrate-agnostic.
"""

from __future__ import annotations

from operator import and_, or_, xor

from repro.aob import AoB, hadamard_int
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import EntanglementError, SimulatorError
from repro.isa.registers import NUM_QAT_REGS
from repro.obs import runtime as _obs
from repro.pattern import ChunkStore, PatternVector
from repro.pattern.vector import PAPER_CHUNK_WAYS
from repro.utils.bits import words_for_bits

#: Recognized backend selector names (CLI ``--qat-backend`` values).
BACKENDS = ("dense", "re")

#: Widest entanglement the RE backend accepts.  Runs and chunk symbols
#: stay bounded well past this, but 16-bit channel operands make wider
#: registers unobservable from Tangled code.
MAX_RE_WAYS = 32

#: Narrowest entanglement the RE backend accepts (chunks are whole
#: 64-bit words, so ``chunk_ways >= 6``).
MIN_RE_WAYS = 6


def make_qat_backend(spec, ways: int):
    """Build the Qat register substrate named by ``spec`` for ``ways``.

    ``spec`` is ``"dense"``, ``"re"``, or an already-built backend
    (returned as-is after a width check).
    """
    if isinstance(spec, QatBackend):
        if spec.ways != ways:
            raise SimulatorError(
                f"backend is {spec.ways}-way but machine wants {ways}-way"
            )
        return spec
    if spec == "dense":
        return DenseQatBackend(ways)
    if spec == "re":
        return REQatBackend(ways)
    raise SimulatorError(
        f"unknown Qat backend {spec!r} (expected one of {', '.join(BACKENDS)})"
    )


class QatBackend:
    """Operation set both substrates implement (registers are indices).

    Gate methods mutate the named destination registers in place (from
    the machine's point of view); measurement methods are pure.  The
    snapshot value is an opaque deep copy consumed only by ``restore``
    on a backend of the same type and width.
    """

    name: str
    ways: int
    nbits: int

    def describe(self) -> str:
        """One-line human description (CLI/report surfaces)."""
        return f"{self.name} ({self.ways}-way)"

    def _tag_metrics(self) -> None:
        """Publish which substrate is live (the backend tag on metrics)."""
        if _obs.active:
            _obs.current().metrics.gauge(f"qat.backend.{self.name}").set(1)


class DenseQatBackend(QatBackend):
    """The paper's hardware rendering: 256 whole-register int values.

    Register ``r`` is one int whose bit ``e`` is channel ``e``, so each
    gate is one ``&``/``|``/``^`` (``not`` XORs the all-ones mask) and
    each readout one shift plus ``bit_count()`` or a lowest-set-bit.
    Telemetry counts the volume of a packed ``words``-word register row
    per op, the unit the paper's bit-serial SIMD datapath sweeps.
    """

    name = "dense"

    def __init__(self, ways: int):
        if not 0 <= ways <= MAX_DENSE_WAYS:
            raise SimulatorError(
                f"dense Qat backend supports ways in [0, {MAX_DENSE_WAYS}], "
                f"got {ways}; the 're' backend (run-length compressed) "
                f"supports up to {MAX_RE_WAYS}-way entanglement"
            )
        self.ways = ways
        self.nbits = 1 << ways
        # 64-bit words per packed register row (telemetry volume)
        self._words = words_for_bits(self.nbits)
        self._ones = (1 << self.nbits) - 1
        self.regs: list[int] = [0] * NUM_QAT_REGS
        self._tag_metrics()

    # -- gates --------------------------------------------------------------

    def binary(self, op: str, d: int, a: int, b: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel(op, self._words)
        regs = self.regs
        regs[d] = _DENSE_BINOPS[op](regs[a], regs[b])

    def ccnot(self, d: int, b: int, c: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel("ccnot", self._words)
        regs = self.regs
        regs[d] ^= regs[b] & regs[c]

    def cnot(self, d: int, c: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel("cnot", self._words)
        regs = self.regs
        regs[d] ^= regs[c]

    def cswap(self, a: int, b: int, ctrl: int) -> None:
        """Fredkin gate as a masked XOR (billiard-ball conservancy)."""
        if _obs.active:
            _obs.current().qat_kernel("cswap", self._words)
        regs = self.regs
        diff = (regs[a] ^ regs[b]) & regs[ctrl]
        regs[a] ^= diff
        regs[b] ^= diff

    def swap(self, a: int, b: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel("swap", self._words)
        regs = self.regs
        regs[a], regs[b] = regs[b], regs[a]

    def invert(self, d: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel("not", self._words)
        self.regs[d] ^= self._ones

    def zero(self, d: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel("zero", self._words)
        self.regs[d] = 0

    def one(self, d: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel("one", self._words)
        self.regs[d] = self._ones

    def had(self, d: int, k: int) -> None:
        if _obs.active:
            _obs.current().qat_kernel("had", self._words)
        self.regs[d] = hadamard_int(self.ways, k)

    # -- measurement ---------------------------------------------------------

    def meas(self, reg: int, channel: int) -> int:
        """Bit ``channel`` (modulo the width, as address bits above the
        top are ignored) of register ``reg``."""
        if _obs.active:
            _obs.current().qat_kernel("meas", 1)  # a one-word bit probe
        return (self.regs[reg] >> (channel & (self.nbits - 1))) & 1

    def next(self, reg: int, channel: int) -> int:
        if _obs.active:
            _obs.current().qat_kernel("next", self._words)
        start = channel + 1
        if start >= self.nbits:
            return 0
        above = self.regs[reg] >> start
        return start + (above & -above).bit_length() - 1 if above else 0

    def pop_after(self, reg: int, channel: int) -> int:
        if _obs.active:
            _obs.current().qat_kernel("pop", self._words)
        start = channel + 1
        if start >= self.nbits:
            return 0
        return (self.regs[reg] >> start).bit_count()

    # -- values ---------------------------------------------------------------

    def read(self, reg: int) -> AoB:
        return AoB(self.ways, self.regs[reg])

    def write(self, reg: int, value: AoB) -> None:
        self.regs[reg] = value.to_int()

    # -- checkpoint / fault surfaces ------------------------------------------

    def snapshot(self) -> tuple[int, ...]:
        """Every register's int, in register order."""
        return tuple(self.regs)

    def restore(self, snap) -> None:
        if len(snap) != NUM_QAT_REGS or any(v < 0 or v >> self.nbits
                                            for v in snap):
            raise SimulatorError(
                f"snapshot is not {NUM_QAT_REGS} registers of "
                f"{self.nbits} bits"
            )
        self.regs = list(snap)

    def flip_bit(self, reg: int, word: int, bit: int) -> None:
        self.regs[reg] ^= 1 << ((word << 6) | bit)

    def stats(self) -> dict:
        return {"backend": self.name, "ways": self.ways,
                "bytes": sum((v.bit_length() + 7) >> 3 for v in self.regs)}


_DENSE_BINOPS = {"and": and_, "or": or_, "xor": xor}


def re_chunk_store(ways: int, chunk_ways: int | None = None) -> ChunkStore:
    """A fresh :class:`ChunkStore` for ``ways``-way RE registers.

    Validates the width; ``chunk_ways`` defaults to the paper's 16-way
    chunks, narrowed to ``ways`` for small machines.
    """
    if not MIN_RE_WAYS <= ways <= MAX_RE_WAYS:
        raise SimulatorError(
            f"RE Qat backend supports ways in [{MIN_RE_WAYS}, "
            f"{MAX_RE_WAYS}], got {ways}"
            + (f"; the dense backend covers [0, {MAX_DENSE_WAYS}]"
               if ways < MIN_RE_WAYS else "")
        )
    if chunk_ways is None:
        chunk_ways = min(PAPER_CHUNK_WAYS, ways)
    return ChunkStore(chunk_ways)


class SharedREStore:
    """One chunk store and gate memo shared by the RE lanes of a batch.

    Registers stay per lane; what the lanes share is the store (so equal
    chunks intern to one symbol) and a memo keyed on the *identity* of a
    gate's operands.  Lanes whose Qat state has not diverged hand a gate
    the very same operand objects, get the first lane's result objects
    back, and so run each distinct gate once per batch, not once per
    lane.  A lane that diverged -- a fault flip is a copy-on-write new
    vector -- misses the memo and computes its own exact value.  The memo
    holds every operand it keys on, so no ``id`` in a key can be recycled
    while the memo lives.
    """

    def __init__(self, ways: int):
        self.store = re_chunk_store(ways)
        #: every lane's registers start as this one zero vector
        self.zero = PatternVector.zeros(ways, self.store)
        #: ``(op, *operand ids) -> (operands, results)``; see
        #: :meth:`REQatBackend._apply`
        self.memo: dict = {}


class REQatBackend(QatBackend):
    """Run-length compressed register file over a chunk store.

    Every register is a :class:`PatternVector`.  The ownership rule: a
    store belongs to one simulation, never to the process-global
    default.  A serial machine owns its store, so two machines -- or two
    rounds of a benchmark, or two seeds of a fault campaign -- never
    leak interned chunks or memo hit counts into each other.  The lanes
    of one batch (:mod:`repro.cpu.batch`) pass one ``shared``
    :class:`SharedREStore`: values stay per lane, only symbols and gate
    results are shared.
    """

    name = "re"

    def __init__(self, ways: int, chunk_ways: int | None = None,
                 shared: SharedREStore | None = None):
        if shared is None:
            self.store = re_chunk_store(ways, chunk_ways)
            zero = PatternVector.zeros(ways, self.store)
            self._memo = None
        else:
            self.store = shared.store
            zero = shared.zero
            self._memo = shared.memo
        self.ways = ways
        self.nbits = 1 << ways
        self.regs: list[PatternVector] = [zero] * NUM_QAT_REGS
        self._tag_metrics()

    def _apply(self, key: tuple, gate, *args) -> tuple:
        """``gate(*args)``'s results, counted as one ``key[0]`` op (see
        :func:`count_re_volume`) and looked up in the shared memo first.

        ``key`` is the op name, the ``id`` of each vector operand and
        ``had``'s ``k``; the memo entry holds the operands themselves.
        """
        memo = self._memo
        if memo is None:
            results = gate(*args)
        else:
            hit = memo.get(key)
            if hit is None:
                hit = memo[key] = (args, gate(*args))
            results = hit[1]
        if _obs.active:
            count_re_volume(key[0], 1, results[0].num_runs)
        return results

    # -- gates --------------------------------------------------------------

    def binary(self, op: str, d: int, a: int, b: int) -> None:
        regs = self.regs
        x, y = regs[a], regs[b]
        regs[d], = self._apply((op, id(x), id(y)), _RE_GATES[op], x, y)

    def ccnot(self, d: int, b: int, c: int) -> None:
        regs = self.regs
        x, y, z = regs[d], regs[b], regs[c]
        regs[d], = self._apply(("ccnot", id(x), id(y), id(z)),
                               _RE_GATES["ccnot"], x, y, z)

    def cnot(self, d: int, c: int) -> None:
        regs = self.regs
        x, y = regs[d], regs[c]
        regs[d], = self._apply(("cnot", id(x), id(y)), _RE_GATES["cnot"],
                               x, y)

    def cswap(self, a: int, b: int, ctrl: int) -> None:
        regs = self.regs
        x, y, z = regs[a], regs[b], regs[ctrl]
        regs[a], regs[b] = self._apply(("cswap", id(x), id(y), id(z)),
                                       _RE_GATES["cswap"], x, y, z)

    def swap(self, a: int, b: int) -> None:
        regs = self.regs
        x, y = regs[a], regs[b]
        regs[a], regs[b] = self._apply(("swap", id(x), id(y)),
                                       _RE_GATES["swap"], x, y)

    def invert(self, d: int) -> None:
        regs = self.regs
        x = regs[d]
        regs[d], = self._apply(("not", id(x)), _RE_GATES["not"], x)

    def zero(self, d: int) -> None:
        self.regs[d], = self._apply(("zero",), self._zeros)

    def one(self, d: int) -> None:
        self.regs[d], = self._apply(("one",), self._ones)

    def had(self, d: int, k: int) -> None:
        self.regs[d], = self._apply(("had", k), self._hadamard, k)

    def _zeros(self) -> tuple:
        return (PatternVector.zeros(self.ways, self.store),)

    def _ones(self) -> tuple:
        return (PatternVector.ones(self.ways, self.store),)

    def _hadamard(self, k: int) -> tuple:
        return (PatternVector.hadamard(self.ways, k, self.store),)

    # -- measurement ---------------------------------------------------------

    def meas(self, reg: int, channel: int) -> int:
        return self.regs[reg].meas(channel)

    def next(self, reg: int, channel: int) -> int:
        return self.regs[reg].next(channel)

    def pop_after(self, reg: int, channel: int) -> int:
        return self.regs[reg].pop_after(channel)

    # -- values ---------------------------------------------------------------

    def vector(self, reg: int) -> PatternVector:
        """The compressed value of register ``reg`` (immutable)."""
        return self.regs[reg]

    def read(self, reg: int) -> AoB:
        return self.regs[reg].to_aob()

    def write(self, reg: int, value) -> None:
        if isinstance(value, PatternVector):
            if value.store is not self.store:
                if value.store.chunk_ways != self.store.chunk_ways:
                    raise EntanglementError(
                        f"chunk must be {self.store.chunk_ways}-way, got "
                        f"{value.store.chunk_ways}-way"
                    )
                value = PatternVector(
                    self.ways,
                    tuple(
                        (self.store.intern_int(value.store.chunk_int(sym)),
                         count)
                        for sym, count in value.runs
                    ),
                    self.store,
                )
            self.regs[reg] = value
        else:
            self.regs[reg] = PatternVector.from_aob(
                value, ways=self.ways, store=self.store
            )

    # -- checkpoint / fault surfaces ------------------------------------------

    def snapshot(self) -> tuple:
        """``(runs per register, chunk payloads)`` -- a value snapshot.

        The chunk payloads pin the meaning of every symbol id at capture
        time, so the snapshot stays valid even if the store later
        re-interns (degradation) or is restored from a checkpoint.
        """
        runs = tuple(pv.runs for pv in self.regs)
        return (runs, tuple(self.store.chunks()))

    def restore(self, snap: tuple) -> None:
        runs, chunks = snap
        if len(runs) != NUM_QAT_REGS:
            raise SimulatorError(
                f"snapshot covers {len(runs)} registers, expected {NUM_QAT_REGS}"
            )
        self.store.restore_chunks(chunks)
        self.regs = [
            PatternVector(self.ways, reg_runs, self.store) for reg_runs in runs
        ]

    def flip_bit(self, reg: int, word: int, bit: int) -> None:
        """Copy-on-write bit flip: interned chunks are never mutated.

        A soft error against a compressed register lands on exactly one
        entanglement channel of that register; every other register (and
        every other run sharing the chunk symbol) keeps its value.
        """
        channel = (word << 6) | bit
        self.regs[reg] = self.regs[reg].with_flipped_bit(channel)

    def stats(self) -> dict:
        out = {"backend": self.name, "ways": self.ways,
               "chunk_ways": self.store.chunk_ways,
               "total_runs": sum(pv.num_runs for pv in self.regs)}
        out.update(self.store.stats())
        return out


#: RE gate bodies by op, each returning its results as a tuple (see
#: :meth:`REQatBackend._apply`).
_RE_GATES = {
    "and": lambda x, y: (x & y,),
    "or": lambda x, y: (x | y,),
    "xor": lambda x, y: (x ^ y,),
    "ccnot": lambda d, b, c: (d.ccnot(b, c),),
    "cnot": lambda d, c: (d ^ c,),
    "cswap": PatternVector.cswap,
    "swap": lambda a, b: (b, a),
    "not": lambda d: (~d,),
}


def count_re_volume(op: str, ops: int, runs: int) -> None:
    """Telemetry: count compressed-op volume in *runs*, not bits.

    The dense kernels report AoB bit volume; here the honest unit of
    work is the run walk, so ``qat.re.runs.<op>`` counts runs touched
    and ``qat.re.ops`` the compressed operations (one per machine).  The
    chunkstore's own hit/miss/bytes-saved counters fire underneath.
    """
    metrics = _obs.current().metrics
    metrics.counter("qat.re.ops").add(ops)
    metrics.counter(f"qat.re.runs.{op}").add(runs)
