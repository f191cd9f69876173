"""Pluggable Qat register-file substrates (the coprocessor "backend").

The paper's hardware implements the 256-register Qat file as dense
65,536-bit AoB rows; its scaling story (section 1.2 and the LCPC'20
software prototype) is that entanglement beyond the hardware width is
handled by run-length/RE compression.  This module makes that a
per-machine choice:

- :class:`DenseQatBackend` -- the existing ``(256, words)`` uint64
  matrix; gates are whole-row NumPy kernel calls.  Memory is
  :math:`O(2^{ways})` per register, so it is bounded by
  :data:`~repro.aob.bitvector.MAX_DENSE_WAYS`.
- :class:`REQatBackend` -- each register is a
  :class:`~repro.pattern.PatternVector` over the machine's own
  :class:`~repro.pattern.ChunkStore`; gates walk runs and memoize
  distinct chunk pairs, so ``had(k)`` and constant registers cost
  O(runs) and entanglement up to :data:`MAX_RE_WAYS` runs in bounded
  memory.

Both backends expose the full Table 3 op set used by
:mod:`repro.cpu.exec_core` plus snapshot/restore (checkpointing) and
single-bit flips (fault injection), so the simulators, the checkpoint
layer and the fault campaigns are substrate-agnostic.
"""

from __future__ import annotations

import numpy as np

from repro.aob import AoB, kernels
from repro.aob.bitvector import MAX_DENSE_WAYS
from repro.errors import SimulatorError
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
    """The paper's hardware rendering: one uint64 matrix, SIMD kernels."""

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
        self.qregs = np.zeros(
            (NUM_QAT_REGS, words_for_bits(self.nbits)), dtype=np.uint64
        )
        self._tag_metrics()

    # -- raw access (dense-only surfaces) -----------------------------------

    def row(self, reg: int) -> np.ndarray:
        """Mutable word row of register ``reg``."""
        return self.qregs[reg]

    # -- gates --------------------------------------------------------------

    def binary(self, op: str, d: int, a: int, b: int) -> None:
        kernel = _DENSE_BINOPS[op]
        kernel(self.qregs[a], self.qregs[b], self.qregs[d])

    def ccnot(self, d: int, b: int, c: int) -> None:
        kernels.k_ccnot(self.qregs[d], self.qregs[b], self.qregs[c])

    def cnot(self, d: int, c: int) -> None:
        kernels.k_cnot(self.qregs[d], self.qregs[c])

    def cswap(self, a: int, b: int, ctrl: int) -> None:
        kernels.k_cswap(self.qregs[a], self.qregs[b], self.qregs[ctrl])

    def swap(self, a: int, b: int) -> None:
        kernels.k_swap(self.qregs[a], self.qregs[b])

    def invert(self, d: int) -> None:
        kernels.k_not(self.qregs[d], self.qregs[d], self.nbits)

    def zero(self, d: int) -> None:
        kernels.k_zero(self.qregs[d])

    def one(self, d: int) -> None:
        kernels.k_one(self.qregs[d], self.nbits)

    def had(self, d: int, k: int) -> None:
        kernels.k_had(self.qregs[d], k, self.ways)

    # -- measurement ---------------------------------------------------------

    def meas(self, reg: int, channel: int) -> int:
        return kernels.k_meas(self.qregs[reg], channel, self.nbits)

    def next(self, reg: int, channel: int) -> int:
        return kernels.k_next(self.qregs[reg], channel, self.nbits)

    def pop_after(self, reg: int, channel: int) -> int:
        return kernels.k_pop_after(self.qregs[reg], channel, self.nbits)

    # -- values ---------------------------------------------------------------

    def read(self, reg: int) -> AoB:
        return AoB(self.ways, self.qregs[reg].copy())

    def write(self, reg: int, value: AoB) -> None:
        self.qregs[reg] = value.words

    # -- checkpoint / fault surfaces ------------------------------------------

    def snapshot(self) -> np.ndarray:
        return self.qregs.copy()

    def restore(self, snap: np.ndarray) -> None:
        if snap.shape != self.qregs.shape:
            raise SimulatorError(
                f"snapshot shape {snap.shape} does not match register file "
                f"{self.qregs.shape}"
            )
        self.qregs[:] = snap

    def flip_bit(self, reg: int, word: int, bit: int) -> None:
        self.qregs[reg, word] ^= np.uint64(1 << bit)

    def stats(self) -> dict:
        return {"backend": self.name, "ways": self.ways,
                "bytes": int(self.qregs.nbytes)}


_DENSE_BINOPS = {
    "and": kernels.k_and,
    "or": kernels.k_or,
    "xor": kernels.k_xor,
}


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


class REQatBackend(QatBackend):
    """Run-length compressed register file over its own chunk store.

    Every register is a :class:`PatternVector`.  The ownership rule: a
    store belongs to one simulation, never to the process-global
    default.  A serial machine owns its store, so two machines -- or two
    rounds of a benchmark, or two seeds of a fault campaign -- never
    leak interned chunks or memo hit counts into each other; the lanes
    of one :class:`~repro.cpu.batch.BatchREQat` share a single store
    (values stay per lane, only symbols and gate memos are shared).
    """

    name = "re"

    def __init__(self, ways: int, chunk_ways: int | None = None):
        self.store = re_chunk_store(ways, chunk_ways)
        self.ways = ways
        self.nbits = 1 << ways
        zero = PatternVector.zeros(ways, self.store)
        self.regs: list[PatternVector] = [zero] * NUM_QAT_REGS
        self._tag_metrics()

    # -- gates --------------------------------------------------------------

    def binary(self, op: str, d: int, a: int, b: int) -> None:
        regs = self.regs
        regs[d] = regs[a].binop(op, regs[b])
        self._volume(op, regs[d])

    def ccnot(self, d: int, b: int, c: int) -> None:
        regs = self.regs
        regs[d] = regs[d].ccnot(regs[b], regs[c])
        self._volume("ccnot", regs[d])

    def cnot(self, d: int, c: int) -> None:
        regs = self.regs
        regs[d] = regs[d] ^ regs[c]
        self._volume("cnot", regs[d])

    def cswap(self, a: int, b: int, ctrl: int) -> None:
        regs = self.regs
        regs[a], regs[b] = regs[a].cswap(regs[b], regs[ctrl])
        self._volume("cswap", regs[a])

    def swap(self, a: int, b: int) -> None:
        regs = self.regs
        regs[a], regs[b] = regs[b], regs[a]
        self._volume("swap", regs[a])

    def invert(self, d: int) -> None:
        self.regs[d] = ~self.regs[d]
        self._volume("not", self.regs[d])

    def zero(self, d: int) -> None:
        self.regs[d] = PatternVector.zeros(self.ways, self.store)
        self._volume("zero", self.regs[d])

    def one(self, d: int) -> None:
        self.regs[d] = PatternVector.ones(self.ways, self.store)
        self._volume("one", self.regs[d])

    def had(self, d: int, k: int) -> None:
        self.regs[d] = PatternVector.hadamard(self.ways, k, self.store)
        self._volume("had", self.regs[d])

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
                value = PatternVector(
                    self.ways,
                    tuple(
                        (self.store.intern(value.store.chunk(sym)), count)
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
        chunks = tuple(np.array(c.words, copy=True) for c in self.store.chunks())
        return (runs, chunks)

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

    def _volume(self, op: str, result: PatternVector) -> None:
        if _obs.active:
            count_re_volume(op, 1, result.num_runs)


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
