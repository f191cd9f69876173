"""NumPy-batched functional simulator: thousands of machines per step.

Fault campaigns replay the same golden program under thousands of
seeded bit flips, and bench sweeps are embarrassingly batchable -- but
the per-machine simulators pay Python dispatch per instruction per
machine.  This module turns the machine axis into an *array* axis:

- **Array-of-machines state** (:class:`BatchMachines`): GPRs are an
  ``(N, 16)`` uint16 matrix, memory an ``(N, 65536)`` uint16 matrix
  (``np.zeros`` is calloc-backed, so untouched lanes cost no RSS),
  PC / instret / halted / parked are per-lane vectors, and the Qat
  register file gains a leading lane axis (:class:`BatchDenseQat`) or
  becomes a lane x register table over one shared chunk store
  (:class:`BatchREQat`).
- **Divergence grouping** (:meth:`BatchFunctionalSimulator.run`): every
  step, active lanes are grouped by the raw instruction word(s) they
  are about to execute -- *not* by PC, so lanes at different addresses
  running the same word still share one dispatch, and self-modifying
  code or memory faults never consult a stale predecode (the fetch
  re-reads the words each step).  Each group resolves its
  :class:`~repro.cpu.fastpath.Predecoded` entry through the same
  process-wide intern table as the fast path and dispatches a single
  :data:`BATCH_HANDLERS` call with vectorized operands
  (:data:`repro.cpu.exec_core.BATCH_EXEC` declares which mnemonics run
  as one NumPy expression vs a per-lane loop).
- **Per-lane traps**: trap semantics mirror
  :func:`repro.faults.traps.deliver` exactly, lane by lane -- the
  :class:`~repro.faults.traps.TrapRecord` (cause, pc, instruction,
  cycle=None, instret, detail) is appended to the lane's ``traps``
  list, and under the default ``raise`` policy the lane is **parked**
  (removed from the active set) with ``errors[lane]`` holding the
  ``str()`` of the exact :class:`~repro.errors.TrapError` /
  :class:`~repro.errors.SyscallError` the serial simulator would have
  raised, context suffix included.  ``halt`` and ``vector`` policies
  update the lane architecturally and keep going.  A trapped
  instruction never retires, exactly like the serial paths.

Flight-recorder semantics (documented batch-mode downgrade): trap,
syscall, and fault-injection events are recorded per lane like the
serial paths, but the per-instruction *retire* stream is dropped --
one batched dispatch retires many lanes and an interleaved per-lane
retire ring would be noise at 1/N the useful depth.  Post-mortems of a
batched campaign therefore show marks, faults, traps, and syscalls
only.

The fault-campaign runner (:mod:`repro.faults.campaign`) packs run
shards into lane batches and classifies each lane exactly like the
serial runner; ``tests/test_batch.py`` holds the differential suite
asserting final-state digests, trap records, and campaign report bytes
match the serial path.
"""

from __future__ import annotations

import numpy as np

from repro.aob import AoB
from repro.aob.bitvector import MAX_DENSE_WAYS, QAT_WAYS
from repro.aob.hadamard import hadamard_words
from repro.aob import kernels
from repro.bf16 import bf16_from_int, bf16_recip, bf16_to_int
from repro.bf16 import vector as bf16_vec
from repro.cpu import fastpath as _fastpath
from repro.cpu.exec_core import BATCH_EXEC  # noqa: F401  (re-exported)
from repro.cpu.qat_backend import MAX_RE_WAYS, count_re_volume, re_chunk_store
from repro.errors import ReproError, SimulatorError, SyscallError, TrapError
from repro.faults.traps import TrapAction, TrapCause, TrapPolicy, TrapRecord
from repro.isa.instructions import INSTRUCTIONS
from repro.isa.registers import NUM_GPRS, NUM_QAT_REGS, RV
from repro.obs import flight as _flight
from repro.obs import runtime as _obs
from repro.pattern import PatternVector
from repro.utils.bits import top_mask, words_for_bits

_MEM_WORDS = 1 << 16
_BF16_EXP_MASK = 0x7F80
_WORD_FULL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

#: Group-key sentinel for "no second word" (one-word instruction or a
#: two-word major at the last address).  Word values are 16-bit, so
#: 0x10000 can never collide with a real second word.
_NO_WORD2 = 0x10000


# ---------------------------------------------------------------------------
# Batched Qat substrates
# ---------------------------------------------------------------------------

class BatchDenseQat:
    """Dense substrate with a leading lane axis: ``(N, 256, words)``.

    Gates take a ``lanes`` index vector and run as one fancy-indexed
    NumPy expression over the whole divergence group; the data layout
    and the bit-level semantics are exactly those of
    :class:`~repro.cpu.qat_backend.DenseQatBackend` /
    :mod:`repro.aob.kernels` (top-word masking invariant included).
    """

    name = "dense"

    def __init__(self, n: int, ways: int):
        if not 0 <= ways <= MAX_DENSE_WAYS:
            raise SimulatorError(
                f"dense Qat backend supports ways in [0, {MAX_DENSE_WAYS}], "
                f"got {ways}; the 're' backend (run-length compressed) "
                f"supports up to {MAX_RE_WAYS}-way entanglement"
            )
        self.ways = ways
        self.nbits = 1 << ways
        self.qregs = np.zeros(
            (n, NUM_QAT_REGS, words_for_bits(self.nbits)), dtype=np.uint64
        )

    # -- gates --------------------------------------------------------------

    def binary(self, op: str, lanes, d: int, a: int, b: int) -> None:
        q = self.qregs
        if op == "and":
            q[lanes, d] = q[lanes, a] & q[lanes, b]
        elif op == "or":
            q[lanes, d] = q[lanes, a] | q[lanes, b]
        elif op == "xor":
            q[lanes, d] = q[lanes, a] ^ q[lanes, b]
        else:  # pragma: no cover - table-driven callers
            raise SimulatorError(f"unknown Qat binary op {op!r}")

    def ccnot(self, lanes, d: int, b: int, c: int) -> None:
        self.qregs[lanes, d] ^= self.qregs[lanes, b] & self.qregs[lanes, c]

    def cnot(self, lanes, d: int, c: int) -> None:
        self.qregs[lanes, d] ^= self.qregs[lanes, c]

    def cswap(self, lanes, a: int, b: int, ctrl: int) -> None:
        q = self.qregs
        diff = (q[lanes, a] ^ q[lanes, b]) & q[lanes, ctrl]
        q[lanes, a] ^= diff
        q[lanes, b] ^= diff

    def swap(self, lanes, a: int, b: int) -> None:
        q = self.qregs
        tmp = q[lanes, a].copy()
        q[lanes, a] = q[lanes, b]
        q[lanes, b] = tmp

    def invert(self, lanes, d: int) -> None:
        inverted = ~self.qregs[lanes, d]
        inverted[:, -1] &= top_mask(self.nbits)
        self.qregs[lanes, d] = inverted

    def zero(self, lanes, d: int) -> None:
        self.qregs[lanes, d] = 0

    def one(self, lanes, d: int) -> None:
        ones = np.full(
            (len(lanes), self.qregs.shape[2]), _WORD_FULL, dtype=np.uint64
        )
        ones[:, -1] = top_mask(self.nbits)
        self.qregs[lanes, d] = ones

    def had(self, lanes, d: int, k: int) -> None:
        self.qregs[lanes, d] = hadamard_words(self.ways, k)

    # -- measurement --------------------------------------------------------

    def meas(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        # Vectorized k_meas: channel modulo the AoB length, one-word probe.
        ch = channels & (self.nbits - 1)
        rows = self.qregs[lanes, reg]
        words = rows[np.arange(rows.shape[0]), ch >> 6]
        return (
            (words >> (ch & 63).astype(np.uint64)) & np.uint64(1)
        ).astype(np.uint16)

    def next(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        # Data-dependent scan: per-lane kernel probes (readout is rare).
        return np.array(
            [kernels.k_next(self.qregs[int(lane), reg], int(ch), self.nbits)
             for lane, ch in zip(lanes, channels)],
            dtype=np.int64,
        )

    def pop_after(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return np.array(
            [kernels.k_pop_after(self.qregs[int(lane), reg], int(ch),
                                 self.nbits)
             for lane, ch in zip(lanes, channels)],
            dtype=np.int64,
        )

    # -- fault / readout surfaces -------------------------------------------

    def flip_bit(self, lane: int, reg: int, word: int, bit: int) -> None:
        self.qregs[lane, reg, word] ^= np.uint64(1 << bit)

    def read(self, lane: int, reg: int) -> AoB:
        return AoB(self.ways, self.qregs[lane, reg].copy())


class BatchREQat:
    """Run-length compressed substrate: all lanes share one chunk store.

    Registers are an ``n x 256`` table of immutable
    :class:`~repro.pattern.PatternVector` values over a single
    :class:`~repro.pattern.ChunkStore`.  Every gate groups the lane
    vector by the *identity* of its operand vectors, computes the result
    once per distinct operand tuple, and assigns that same result object
    to every lane of the group -- lanes whose Qat state has not diverged
    cost one gate, not N.  Divergent lanes still get an exact per-lane
    value: fault flips are copy-on-write
    (:meth:`~repro.pattern.PatternVector.with_flipped_bit`) and intern
    into the shared store, never mutating a chunk another lane holds.
    Values match the serial :class:`~repro.cpu.qat_backend.REQatBackend`
    bit for bit; only the store-level ``chunkstore.*`` counters differ.
    """

    name = "re"

    def __init__(self, n: int, ways: int):
        self.store = re_chunk_store(ways)
        self.ways = ways
        self.nbits = 1 << ways
        zero = PatternVector.zeros(ways, self.store)
        self.regs = [[zero] * NUM_QAT_REGS for _ in range(n)]

    def _apply(self, op: str, lanes, srcs, dsts, gate) -> None:
        """Group lanes by operand identity, run ``gate`` once per group,
        write its results (one per ``dsts`` register) back to each lane.

        The memo keeps the operand vectors alive, so no ``id`` can be
        recycled while this call still keys on it.
        """
        memo = {}
        runs = 0
        regs = self.regs
        for lane in lanes.tolist():
            row = regs[lane]
            key = tuple(map(id, map(row.__getitem__, srcs)))
            hit = memo.get(key)
            if hit is None:
                args = tuple(map(row.__getitem__, srcs))
                results = gate(*args)
                hit = memo[key] = (args, results, results[0].num_runs)
            for r, value in zip(dsts, hit[1]):
                row[r] = value
            runs += hit[2]
        if _obs.active:
            count_re_volume(op, len(lanes), runs)

    def binary(self, op: str, lanes, d: int, a: int, b: int) -> None:
        self._apply(op, lanes, (a, b), (d,),
                    lambda x, y: (x.binop(op, y),))

    def ccnot(self, lanes, d: int, b: int, c: int) -> None:
        self._apply("ccnot", lanes, (d, b, c), (d,),
                    lambda x, y, z: (x.ccnot(y, z),))

    def cnot(self, lanes, d: int, c: int) -> None:
        self._apply("cnot", lanes, (d, c), (d,), lambda x, y: (x ^ y,))

    def cswap(self, lanes, a: int, b: int, ctrl: int) -> None:
        self._apply("cswap", lanes, (a, b, ctrl), (a, b),
                    lambda x, y, z: x.cswap(y, z))

    def swap(self, lanes, a: int, b: int) -> None:
        self._apply("swap", lanes, (a, b), (a, b), lambda x, y: (y, x))

    def invert(self, lanes, d: int) -> None:
        self._apply("not", lanes, (d,), (d,), lambda x: (~x,))

    def zero(self, lanes, d: int) -> None:
        self._apply("zero", lanes, (), (d,),
                    lambda: (PatternVector.zeros(self.ways, self.store),))

    def one(self, lanes, d: int) -> None:
        self._apply("one", lanes, (), (d,),
                    lambda: (PatternVector.ones(self.ways, self.store),))

    def had(self, lanes, d: int, k: int) -> None:
        self._apply("had", lanes, (), (d,),
                    lambda: (PatternVector.hadamard(self.ways, k,
                                                    self.store),))

    def _probe(self, probe, lanes, reg: int, channels) -> np.ndarray:
        return np.array(
            [probe(self.regs[lane][reg], ch)
             for lane, ch in zip(lanes.tolist(), channels.tolist())],
            dtype=np.int64,
        )

    def meas(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return self._probe(PatternVector.meas, lanes, reg, channels)

    def next(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return self._probe(PatternVector.next, lanes, reg, channels)

    def pop_after(self, lanes, reg: int, channels: np.ndarray) -> np.ndarray:
        return self._probe(PatternVector.pop_after, lanes, reg, channels)

    def flip_bit(self, lane: int, reg: int, word: int, bit: int) -> None:
        row = self.regs[int(lane)]
        row[reg] = row[reg].with_flipped_bit((word << 6) | bit)

    def read(self, lane: int, reg: int) -> AoB:
        return self.regs[int(lane)][reg].to_aob()


def _make_batch_qat(spec, n: int, ways: int):
    if spec == "dense":
        return BatchDenseQat(n, ways)
    if spec == "re":
        return BatchREQat(n, ways)
    raise SimulatorError(
        f"unknown Qat backend spec {spec!r} for the batch simulator "
        f"(expected 'dense' or 're')"
    )


# ---------------------------------------------------------------------------
# Array-of-machines state
# ---------------------------------------------------------------------------

class BatchMachines:
    """Architectural state of ``n`` machines over a leading lane axis."""

    def __init__(self, n: int, ways: int = QAT_WAYS,
                 trap_policy: TrapPolicy | None = None,
                 qat_backend="dense"):
        if n <= 0:
            raise SimulatorError(f"batch size must be positive, got {n}")
        self.qat = _make_batch_qat(qat_backend, n, ways)
        self.n = n
        self.ways = ways
        self.nbits = 1 << ways
        self.regs = np.zeros((n, NUM_GPRS), dtype=np.uint16)
        self.mem = np.zeros((n, _MEM_WORDS), dtype=np.uint16)
        self.pc = np.zeros(n, dtype=np.int64)
        self.instret = np.zeros(n, dtype=np.int64)
        self.halted = np.zeros(n, dtype=bool)
        #: lanes whose trap raised under the ``raise`` policy: out of the
        #: active set, with the would-be exception text in ``errors``
        self.parked = np.zeros(n, dtype=bool)
        self.output: list[list[str]] = [[] for _ in range(n)]
        self.traps: list[list[TrapRecord]] = [[] for _ in range(n)]
        self.errors: list[str | None] = [None] * n
        self.trap_policy = (
            trap_policy if trap_policy is not None else TrapPolicy()
        )

    def load_program(self, words, origin: int = 0) -> None:
        """Copy one program image into every lane's memory."""
        words = np.asarray([int(w) & 0xFFFF for w in words], dtype=np.uint16)
        if origin + words.size > _MEM_WORDS:
            raise SimulatorError("program image exceeds memory")
        self.mem[:, origin:origin + words.size] = words
        self.pc[:] = origin

    def active_lanes(self) -> np.ndarray:
        return np.flatnonzero(~(self.halted | self.parked))

    def retire(self, lanes, pc_next) -> None:
        self.pc[lanes] = pc_next
        self.instret[lanes] += 1

    def read_qreg(self, lane: int, reg: int) -> AoB:
        return self.qat.read(lane, reg)

    def trap_lane(self, lane: int, cause: TrapCause, detail: str = "",
                  instruction: str | None = None,
                  resume_pc: int | None = None,
                  service: int | None = None) -> None:
        """Per-lane mirror of :func:`repro.faults.traps.deliver`.

        Same record, same recorder/metrics hooks, same policy actions --
        except that the ``raise`` action *parks* the lane (recording the
        exact exception text the serial simulator would have raised)
        instead of raising, so the other lanes keep stepping.
        """
        policy = self.trap_policy
        record = TrapRecord(
            cause=cause,
            pc=int(self.pc[lane]),
            instruction=instruction,
            cycle=None,
            instret=int(self.instret[lane]),
            detail=detail,
        )
        self.traps[lane].append(record)
        if _flight.RECORDER.enabled:
            _flight.RECORDER.note_trap(record.pc, cause.value, None,
                                       record.instret, detail)
        if _obs.active:
            _obs.current().metrics.counter(f"traps.{cause.value}").inc()

        action = policy.action_for(cause)
        if action is TrapAction.RAISE:
            message = detail or f"trap: {cause.value}"
            context = {"pc": record.pc, "cycle": None,
                       "instruction": instruction}
            if service is not None:
                exc = SyscallError(message, service=service, record=record,
                                   **context)
            else:
                exc = TrapError(message, record=record, **context)
            self.errors[lane] = str(exc)
            self.parked[lane] = True
        elif action is TrapAction.HALT:
            self.halted[lane] = True
        else:  # VECTOR
            if resume_pc is None:
                resume_pc = (int(self.pc[lane]) + 1) & 0xFFFF
            self.regs[lane, policy.cause_reg] = cause.code & 0xFFFF
            self.regs[lane, policy.epc_reg] = resume_pc & 0xFFFF
            self.pc[lane] = policy.handler_for(cause)


# ---------------------------------------------------------------------------
# Batched mnemonic handlers
# ---------------------------------------------------------------------------
#
# Signature: ``handler(bm, entry, lanes, pc_next)``.  ``lanes`` is the
# divergence group's lane-index vector, ``pc_next`` the per-lane
# sequential successor.  Handlers own retirement: surviving lanes get
# ``bm.retire(lanes, next_pc)`` (branches pass their redirected
# targets); lanes that trap never retire, mirroring the serial paths.

def _trap_group(bm, entry, lanes, pc_next, cause, details,
                instruction=None, services=None) -> None:
    """Deliver one trap per lane (``details`` is per-lane or shared)."""
    for i, lane in enumerate(lanes):
        bm.trap_lane(
            int(lane), cause,
            detail=details[i] if isinstance(details, list) else details,
            instruction=instruction,
            resume_pc=int(pc_next[i]),
            service=None if services is None else services[i],
        )


def _b_add(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] += bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_and(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] &= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_or(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] |= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_xor(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] ^= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_mul(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] *= bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_copy(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    bm.regs[lanes, d] = bm.regs[lanes, s]
    bm.retire(lanes, pc_next)


def _b_neg(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = -bm.regs[lanes, d]
    bm.retire(lanes, pc_next)


def _b_not(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = ~bm.regs[lanes, d]
    bm.retire(lanes, pc_next)


def _b_shift(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    amount = bm.regs[lanes, s].astype(np.int64)
    amount = np.where(amount >= 0x8000, amount - 0x10000, amount)
    value = bm.regs[lanes, d].astype(np.int64)
    left = value << np.clip(amount, 0, 15)
    right = value >> np.clip(-amount, 0, 63)
    result = np.where(
        (amount >= 16) | (amount <= -16), 0,
        np.where(amount >= 0, left, right),
    )
    bm.regs[lanes, d] = result & 0xFFFF
    bm.retire(lanes, pc_next)


def _b_slt(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    a = bm.regs[lanes, d].astype(np.int64)
    b = bm.regs[lanes, s].astype(np.int64)
    a = np.where(a >= 0x8000, a - 0x10000, a)
    b = np.where(b >= 0x8000, b - 0x10000, b)
    bm.regs[lanes, d] = (a < b).astype(np.uint16)
    bm.retire(lanes, pc_next)


def _b_lex(bm, entry, lanes, pc_next):
    imm = entry.ops[1]
    value = imm & 0xFF if (imm & 0x80) == 0 else (imm & 0xFF) | 0xFF00
    bm.regs[lanes, entry.ops[0]] = value
    bm.retire(lanes, pc_next)


def _b_lhi(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    high = (entry.ops[1] & 0xFF) << 8
    bm.regs[lanes, d] = (bm.regs[lanes, d] & 0x00FF) | high
    bm.retire(lanes, pc_next)


def _b_brf(bm, entry, lanes, pc_next):
    taken = bm.regs[lanes, entry.ops[0]] == 0
    bm.retire(lanes, np.where(taken, (pc_next + entry.ops[1]) & 0xFFFF,
                              pc_next))


def _b_brt(bm, entry, lanes, pc_next):
    taken = bm.regs[lanes, entry.ops[0]] != 0
    bm.retire(lanes, np.where(taken, (pc_next + entry.ops[1]) & 0xFFFF,
                              pc_next))


def _b_jumpr(bm, entry, lanes, pc_next):
    bm.retire(lanes, bm.regs[lanes, entry.ops[0]].astype(np.int64))


def _b_load(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    addr = bm.regs[lanes, s].astype(np.int64)
    fence = bm.trap_policy.mem_fence
    if fence is not None:
        bad = addr >= fence
        if bad.any():
            _trap_group(
                bm, entry, lanes[bad], pc_next[bad], TrapCause.MEM_FAULT,
                [f"load from {int(a):#06x} beyond fence {fence:#06x}"
                 for a in addr[bad]],
                instruction=entry.instr.render(),
            )
            good = ~bad
            lanes, pc_next, addr = lanes[good], pc_next[good], addr[good]
            if lanes.size == 0:
                return
    bm.regs[lanes, d] = bm.mem[lanes, addr]
    bm.retire(lanes, pc_next)


def _b_store(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    addr = bm.regs[lanes, s].astype(np.int64)
    fence = bm.trap_policy.mem_fence
    if fence is not None:
        bad = addr >= fence
        if bad.any():
            _trap_group(
                bm, entry, lanes[bad], pc_next[bad], TrapCause.MEM_FAULT,
                [f"store to {int(a):#06x} beyond fence {fence:#06x}"
                 for a in addr[bad]],
                instruction=entry.instr.render(),
            )
            good = ~bad
            lanes, pc_next, addr = lanes[good], pc_next[good], addr[good]
            if lanes.size == 0:
                return
    bm.mem[lanes, addr] = bm.regs[lanes, d]
    bm.retire(lanes, pc_next)


def _finish_bf16(bm, entry, lanes, pc_next, d, result, mnemonic):
    """Shared non-finite check + writeback for addf/mulf/recip."""
    if bm.trap_policy.trap_bf16:
        bad = (result & _BF16_EXP_MASK) == _BF16_EXP_MASK
        if bad.any():
            _trap_group(
                bm, entry, lanes[bad], pc_next[bad], TrapCause.BF16_FAULT,
                [f"{mnemonic} produced non-finite bf16 {int(r):#06x}"
                 for r in result[bad]],
                instruction=entry.instr.render(),
            )
            good = ~bad
            lanes, pc_next, result = lanes[good], pc_next[good], result[good]
            if lanes.size == 0:
                return
    bm.regs[lanes, d] = result
    bm.retire(lanes, pc_next)


def _b_addf(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    result = bf16_vec.add(bm.regs[lanes, d], bm.regs[lanes, s])
    _finish_bf16(bm, entry, lanes, pc_next, d,
                 result.astype(np.uint16), "addf")


def _b_mulf(bm, entry, lanes, pc_next):
    d, s = entry.ops[0], entry.ops[1]
    result = bf16_vec.mul(bm.regs[lanes, d], bm.regs[lanes, s])
    _finish_bf16(bm, entry, lanes, pc_next, d,
                 result.astype(np.uint16), "mulf")


def _b_negf(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = bf16_vec.neg(bm.regs[lanes, d]).astype(np.uint16)
    bm.retire(lanes, pc_next)


def _b_recip(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    result = np.array(
        [bf16_recip(int(v)) & 0xFFFF for v in bm.regs[lanes, d]],
        dtype=np.uint16,
    )
    _finish_bf16(bm, entry, lanes, pc_next, d, result, "recip")


def _b_float(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = np.array(
        [bf16_from_int(int(v)) & 0xFFFF for v in bm.regs[lanes, d]],
        dtype=np.uint16,
    )
    bm.retire(lanes, pc_next)


def _b_int(bm, entry, lanes, pc_next):
    d = entry.ops[0]
    bm.regs[lanes, d] = np.array(
        [bf16_to_int(int(v)) & 0xFFFF for v in bm.regs[lanes, d]],
        dtype=np.uint16,
    )
    bm.retire(lanes, pc_next)


def _b_sys(bm, entry, lanes, pc_next):
    recorder = _flight.RECORDER
    keep = []
    for i in range(len(lanes)):
        lane = int(lanes[i])
        service = int(bm.regs[lane, RV])
        # machine.pc still addresses the ``sys`` word here, exactly as
        # in SyscallHandler.handle (the serial slow and fast paths).
        if recorder.enabled:
            recorder.note_syscall(int(bm.pc[lane]), service)
        if service == 0:
            bm.halted[lane] = True
        elif service == 1:
            value = int(bm.regs[lane, 0])
            if value >= 0x8000:
                value -= 0x10000
            bm.output[lane].append(str(value))
        elif service == 2:
            bm.output[lane].append(chr(int(bm.regs[lane, 0]) & 0xFF))
        elif service == 3:
            # The batch simulator is untimed: like the functional
            # simulator's default SyscallHandler, the counter reads 0.
            bm.regs[lane, 0] = 0
        elif service == 4:
            addr = int(bm.regs[lane, 0])
            row = bm.mem[lane]
            chars = []
            for _ in range(4096):  # runaway guard
                code = int(row[addr])
                if code == 0:
                    break
                chars.append(chr(code & 0xFF))
                addr = (addr + 1) & 0xFFFF
            bm.output[lane].append("".join(chars))
        else:
            bm.trap_lane(
                lane, TrapCause.UNKNOWN_SYSCALL,
                detail=f"unknown sys service {service}",
                instruction="sys",
                resume_pc=int(pc_next[i]),
                service=service,
            )
            continue
        keep.append(i)
    if keep:
        kept = np.asarray(keep)
        bm.retire(lanes[kept], pc_next[kept])


def _b_qand(bm, entry, lanes, pc_next):
    bm.qat.binary("and", lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qor(bm, entry, lanes, pc_next):
    bm.qat.binary("or", lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qxor(bm, entry, lanes, pc_next):
    bm.qat.binary("xor", lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qccnot(bm, entry, lanes, pc_next):
    bm.qat.ccnot(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qcnot(bm, entry, lanes, pc_next):
    bm.qat.cnot(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qcswap(bm, entry, lanes, pc_next):
    bm.qat.cswap(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qswap(bm, entry, lanes, pc_next):
    bm.qat.swap(lanes, *entry.ops)
    bm.retire(lanes, pc_next)


def _b_qnot(bm, entry, lanes, pc_next):
    bm.qat.invert(lanes, entry.ops[0])
    bm.retire(lanes, pc_next)


def _b_qzero(bm, entry, lanes, pc_next):
    bm.qat.zero(lanes, entry.ops[0])
    bm.retire(lanes, pc_next)


def _b_qone(bm, entry, lanes, pc_next):
    bm.qat.one(lanes, entry.ops[0])
    bm.retire(lanes, pc_next)


def _b_qhad(bm, entry, lanes, pc_next):
    if bm.trap_policy.strict_qat and entry.ops[1] >= bm.ways:
        _trap_group(
            bm, entry, lanes, pc_next, TrapCause.QAT_FAULT,
            f"had k={entry.ops[1]} exceeds {bm.ways}-way entanglement",
            instruction=entry.instr.render(),
        )
        return
    bm.qat.had(lanes, entry.ops[0], entry.ops[1])
    bm.retire(lanes, pc_next)


def _strict_channels(bm, entry, lanes, pc_next, channels):
    """Split off lanes whose channel operand is out of range (strict)."""
    bad = channels >= bm.nbits
    if bad.any():
        _trap_group(
            bm, entry, lanes[bad], pc_next[bad], TrapCause.QAT_FAULT,
            [f"channel {int(ch)} out of range for {bm.nbits}-channel AoB"
             for ch in channels[bad]],
            instruction=entry.instr.render(),
        )
        good = ~bad
        return lanes[good], pc_next[good], channels[good]
    return lanes, pc_next, channels


def _b_qmeas(bm, entry, lanes, pc_next):
    d, a = entry.ops[0], entry.ops[1]
    channels = bm.regs[lanes, d].astype(np.int64)
    if bm.trap_policy.strict_qat:
        lanes, pc_next, channels = _strict_channels(
            bm, entry, lanes, pc_next, channels)
        if lanes.size == 0:
            return
    bm.regs[lanes, d] = bm.qat.meas(lanes, a, channels)
    bm.retire(lanes, pc_next)


def _b_qnext(bm, entry, lanes, pc_next):
    d, a = entry.ops[0], entry.ops[1]
    channels = bm.regs[lanes, d].astype(np.int64)
    if bm.trap_policy.strict_qat:
        lanes, pc_next, channels = _strict_channels(
            bm, entry, lanes, pc_next, channels)
        if lanes.size == 0:
            return
    values = bm.qat.next(lanes, a, channels)
    bm.regs[lanes, d] = (values & 0xFFFF).astype(np.uint16)
    bm.retire(lanes, pc_next)


def _b_qpop(bm, entry, lanes, pc_next):
    d, a = entry.ops[0], entry.ops[1]
    channels = bm.regs[lanes, d].astype(np.int64)
    if bm.trap_policy.strict_qat:
        lanes, pc_next, channels = _strict_channels(
            bm, entry, lanes, pc_next, channels)
        if lanes.size == 0:
            return
    values = bm.qat.pop_after(lanes, a, channels)
    over = values > 0xFFFF
    if over.any():
        if bm.trap_policy.strict_qat:
            _trap_group(
                bm, entry, lanes[over], pc_next[over], TrapCause.QAT_FAULT,
                [f"pop after channel {int(ch)} counted {int(v)} "
                 f"ones, exceeding the 16-bit destination"
                 for ch, v in zip(channels[over], values[over])],
                instruction=entry.instr.render(),
            )
            good = ~over
            lanes, pc_next, values = lanes[good], pc_next[good], values[good]
            if lanes.size == 0:
                return
        else:
            values = np.minimum(values, 0xFFFF)
    bm.regs[lanes, d] = values.astype(np.uint16)
    bm.retire(lanes, pc_next)


#: mnemonic -> batch handler; covers every entry of ``INSTRUCTIONS``.
BATCH_HANDLERS = {
    "add": _b_add,
    "addf": _b_addf,
    "and": _b_and,
    "brf": _b_brf,
    "brt": _b_brt,
    "copy": _b_copy,
    "float": _b_float,
    "int": _b_int,
    "jumpr": _b_jumpr,
    "lex": _b_lex,
    "lhi": _b_lhi,
    "load": _b_load,
    "mul": _b_mul,
    "mulf": _b_mulf,
    "neg": _b_neg,
    "negf": _b_negf,
    "not": _b_not,
    "or": _b_or,
    "recip": _b_recip,
    "shift": _b_shift,
    "slt": _b_slt,
    "store": _b_store,
    "sys": _b_sys,
    "xor": _b_xor,
    "qand": _b_qand,
    "qccnot": _b_qccnot,
    "qcnot": _b_qcnot,
    "qcswap": _b_qcswap,
    "qhad": _b_qhad,
    "qmeas": _b_qmeas,
    "qnext": _b_qnext,
    "qnot": _b_qnot,
    "qone": _b_qone,
    "qor": _b_qor,
    "qpop": _b_qpop,
    "qswap": _b_qswap,
    "qxor": _b_qxor,
    "qzero": _b_qzero,
}

assert set(BATCH_HANDLERS) == set(INSTRUCTIONS), \
    "batch dispatch table out of sync"


# ---------------------------------------------------------------------------
# Fault injection (per-lane mirror of repro.faults.inject.apply_event)
# ---------------------------------------------------------------------------

def apply_lane_event(bm: BatchMachines, lane: int, event) -> None:
    """Flip the bit ``event`` names in lane ``lane`` of ``bm``.

    Mirrors :func:`repro.faults.inject.apply_event` (recorder note,
    metrics counter, then the architectural flip).  There is no
    predecode cache to invalidate -- the batch loop re-fetches the raw
    instruction words every step -- and ``latch`` events degrade to an
    architectural PC flip exactly as they do on the serial functional
    simulator.
    """
    if _flight.RECORDER.enabled:
        _flight.RECORDER.note_fault(
            event.target,
            f"step={event.step} index={event.index} "
            f"word={event.word} bit={event.bit}",
        )
    if _obs.active:
        _obs.current().metrics.counter(
            f"faults.injected.{event.target}").inc()
    if event.target == "gpr":
        bm.regs[lane, event.index] ^= np.uint16(1 << event.bit)
    elif event.target == "mem":
        bm.mem[lane, event.index] ^= np.uint16(1 << event.bit)
    elif event.target == "qreg":
        bm.qat.flip_bit(lane, event.index, event.word, event.bit)
    elif event.target in ("pc", "latch"):
        bm.pc[lane] ^= 1 << event.bit
    else:
        raise ReproError(f"unknown fault target {event.target!r}")


# ---------------------------------------------------------------------------
# The batched run loop
# ---------------------------------------------------------------------------

class BatchFunctionalSimulator:
    """Functional simulation of ``n`` machines in lockstep.

    Divergence-grouped execution: each step, active lanes are grouped
    by the raw instruction word(s) under their PC, each group's
    :class:`~repro.cpu.fastpath.Predecoded` entry is resolved through
    the process-wide intern table, and one :data:`BATCH_HANDLERS` call
    executes the whole group.  Lanes halt independently (``sys 0``) or
    park on a raised trap; :meth:`run` returns when no lane is active.
    """

    def __init__(self, n: int, ways: int = QAT_WAYS,
                 trap_policy: TrapPolicy | None = None,
                 qat_backend="dense"):
        self.machines = BatchMachines(n, ways=ways, trap_policy=trap_policy,
                                      qat_backend=qat_backend)
        self.n = n

    def load(self, program, origin: int | None = None) -> None:
        """Load one assembled Program (or raw words) into every lane."""
        words = getattr(program, "words", program)
        entry = getattr(program, "entry", 0) if origin is None else origin
        self.machines.load_program(words,
                                   origin=0 if origin is None else origin)
        self.machines.pc[:] = entry

    def run(self, max_steps: int = 1_000_000, plans=None,
            watchdog_detail: str | None = None) -> np.ndarray:
        """Step every lane to halt/park; returns per-lane step counts.

        ``plans`` (optional, one :class:`~repro.faults.inject.FaultPlan`
        per lane or ``None`` entries) injects each lane's due fault
        events before the step executes, exactly where the campaign
        driver does.  When the step budget is exhausted, every still-
        active lane takes the ``watchdog`` trap (``watchdog_detail``
        lets the campaign runner supply its exact serial detail string)
        and the loop ends.
        """
        bm = self.machines
        if plans is not None and len(plans) != bm.n:
            raise SimulatorError(
                f"got {len(plans)} fault plans for {bm.n} lanes"
            )
        due: list[dict[int, list]] = []
        if plans is not None:
            for plan in plans:
                by_step: dict[int, list] = {}
                if plan is not None:
                    for event in plan.events:
                        by_step.setdefault(event.step, []).append(event)
                due.append(by_step)
        lane_steps = np.zeros(bm.n, dtype=np.int64)
        step = 0
        while True:
            lanes = bm.active_lanes()
            if lanes.size == 0:
                break
            if step >= max_steps:
                detail = (
                    watchdog_detail if watchdog_detail is not None
                    else f"exceeded {max_steps} steps without halting"
                )
                for lane in lanes:
                    bm.trap_lane(int(lane), TrapCause.WATCHDOG,
                                 detail=detail)
                # The serial drivers stop stepping a machine once its
                # watchdog fires, whatever the policy action was.
                break
            if due:
                for lane in lanes:
                    for event in due[int(lane)].get(step, ()):
                        apply_lane_event(bm, int(lane), event)
                lanes = bm.active_lanes()
                if lanes.size == 0:
                    break
            pcs = bm.pc[lanes]
            word0 = bm.mem[lanes, pcs].astype(np.int64)
            two = ((word0 >> 12) == 0x8) | ((word0 >> 12) == 0x9)
            two &= pcs + 1 < _MEM_WORDS
            word1 = np.full(lanes.shape, _NO_WORD2, dtype=np.int64)
            if two.any():
                word1[two] = bm.mem[lanes[two], pcs[two] + 1]
            keys = (word0 << 17) | word1
            unique, inverse = np.unique(keys, return_inverse=True)
            for gi, key in enumerate(unique):
                members = inverse == gi
                glanes = lanes[members]
                gpcs = pcs[members]
                word2 = int(key) & 0x1FFFF
                intern_key = (
                    int(key) >> 17 if word2 == _NO_WORD2
                    else (int(key) >> 17, word2)
                )
                entry = _fastpath._INTERN.get(intern_key)
                if entry is None:
                    # Decode on a representative lane's full memory row
                    # (interns the entry; error text included).
                    entry = _fastpath._predecode(bm.mem[glanes[0]],
                                                 int(gpcs[0]))
                if entry.handler is None:
                    for lane in glanes:
                        bm.trap_lane(int(lane), TrapCause.ILLEGAL_OPCODE,
                                     detail=entry.error)
                else:
                    pc_next = (gpcs + entry.words) & 0xFFFF
                    BATCH_HANDLERS[entry.mnemonic](bm, entry, glanes,
                                                   pc_next)
            lane_steps[lanes] += 1
            step += 1
        return lane_steps
