"""Checkpoint/recovery of full Tangled/Qat machine state.

A :class:`Checkpoint` captures everything architecturally visible --
GPRs, PC, 64Ki-word memory, the whole Qat register file, the halted
flag, instruction count and program output -- plus a SHA-256 integrity
digest over the canonical byte encoding, so a checkpoint corrupted at
rest (or by the fault injector) is *detected* on restore rather than
silently resurrecting bad state.

:class:`AutoCheckpointer` is the periodic variant the simulators drive
from their run loops: attach one as ``sim.checkpointer`` and the machine
is snapshotted every ``interval`` retired instructions, keeping a small
ring of recent checkpoints.  Combined with a ``halt`` watchdog policy
this gives crash-recovery semantics: a runaway program stops cleanly and
the last good checkpoint is one ``restore`` away.

Checkpoints serialize with :func:`numpy.savez_compressed`, so they are
single portable files with no extra dependencies.  In memory every Qat
value is a Python int (channel ``e`` = bit ``e``); this module alone
stores them as packed uint64 words (:attr:`AoB.words
<repro.aob.AoB.words>`) and reads them back -- the ``(256, words)``
dense register matrix and one word array per chunk -- so the file layout
and its digest are those of format v1.  An RE checkpoint's run lists
name chunks by id: the capture numbers the distinct chunks its live
registers hold, the all-zeros and all-ones chunks first.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import CheckpointError
from repro.isa.registers import NUM_QAT_REGS
from repro.obs import flight as _flight
from repro.obs import runtime as _obs
from repro.pattern import PatternVector
from repro.utils.bits import words_for_bits

#: Format version stamped into saved checkpoint files.  RE-backend
#: checkpoints add optional header keys (``qat_backend``, ``qat_ways``,
#: ``qat_runs``) but dense files are byte-compatible, so the version is
#: unchanged and old files load as dense.
FORMAT_VERSION = 1

#: ``qregs`` payload of an RE checkpoint (no dense matrix exists there).
_NO_QREGS = np.zeros((0, 0), dtype=np.uint64)


def _from_words(words: np.ndarray) -> int:
    """The int whose packed little-endian uint64 words are ``words`` (the
    inverse of :attr:`AoB.words <repro.aob.AoB.words>`)."""
    return int.from_bytes(np.ascontiguousarray(words, dtype="<u8").tobytes(),
                          "little")


def _number_chunks(regs, store) -> tuple[tuple, list[int]]:
    """``(run lists by chunk id, chunk ints in id order)`` of RE ``regs``.

    Ids 0 and 1 are the all-zeros and all-ones chunks; the other chunks
    are numbered in order of first appearance.
    """
    chunks = [store.zero_id, store.one_id]
    ids = {chunk: i for i, chunk in enumerate(chunks)}
    runs = []
    for pv in regs:
        reg = []
        for chunk, count in pv.runs:
            i = ids.setdefault(chunk, len(chunks))
            if i == len(chunks):
                chunks.append(chunk)
            reg.append((i, count))
        runs.append(tuple(reg))
    return tuple(runs), chunks


def _digest(regs: np.ndarray, mem: np.ndarray, qat_blobs: tuple[bytes, ...],
            pc: int, halted: bool, instret: int, output: tuple[str, ...]) -> str:
    hasher = hashlib.sha256()
    hasher.update(regs.tobytes())
    hasher.update(mem.tobytes())
    for blob in qat_blobs:
        hasher.update(blob)
    hasher.update(f"{pc}:{int(halted)}:{instret}".encode())
    for chunk in output:
        hasher.update(b"\x00")
        hasher.update(chunk.encode("utf-8"))
    return hasher.hexdigest()


def _qat_blobs(backend: str, qregs: np.ndarray, qat_runs: tuple,
               store_chunks: tuple[np.ndarray, ...]) -> tuple[bytes, ...]:
    """Canonical byte encoding of the Qat substrate for digesting.

    Dense checkpoints hash the packed matrix exactly as format v1 always
    did (old digests stay valid); RE checkpoints hash the run lists plus
    the chunk payloads that pin each symbol's meaning.
    """
    if backend == "dense":
        return (qregs.tobytes(),)
    blobs = [json.dumps(qat_runs, sort_keys=True).encode("utf-8")]
    blobs.extend(np.ascontiguousarray(c).tobytes() for c in store_chunks)
    return tuple(blobs)


@dataclass(frozen=True)
class Checkpoint:
    """An immutable snapshot of one machine's architectural state."""

    pc: int
    halted: bool
    instret: int
    regs: np.ndarray
    mem: np.ndarray
    qregs: np.ndarray
    output: tuple[str, ...]
    digest: str
    #: timing-model cycle at capture, if the simulator supplied one
    cycle: int | None = None
    #: RE only: one payload per chunk id of ``qat_runs``
    store_chunks: tuple[np.ndarray, ...] = field(default=())
    store_chunk_ways: int | None = None
    #: which Qat substrate the machine ran ("dense" or "re")
    qat_backend: str = "dense"
    qat_ways: int | None = None
    #: RE only: per-register run lists ``((chunk id, count), ...)``; the
    #: ids' payloads are ``store_chunks``
    qat_runs: tuple = ()

    @classmethod
    def take(cls, machine, cycle: int | None = None) -> "Checkpoint":
        """Snapshot ``machine`` now.

        On an RE-backed machine the run lists are captured with the
        payload of every chunk they hold, and of nothing else.
        """
        t0 = time.perf_counter_ns()
        regs = np.array(machine.regs, dtype=np.uint16)
        mem = np.array(machine.mem)
        backend = machine.qat.name
        qat_runs: tuple = ()
        store_chunks: tuple[np.ndarray, ...] = ()
        store_chunk_ways = None
        if backend == "dense":
            qregs = np.stack([machine.read_qreg(reg).words
                              for reg in range(NUM_QAT_REGS)])
        else:
            qregs = _NO_QREGS
            store = machine.qat.store
            qat_runs, chunks = _number_chunks(machine.qat.regs, store)
            store_chunks = tuple(store.chunk(chunk).words.copy()
                                 for chunk in chunks)
            store_chunk_ways = store.chunk_ways
        output = tuple(machine.output)
        if _obs.active:
            _obs.current().checkpoint_op("capture", t0)
        if _flight.RECORDER.enabled:
            _flight.RECORDER.note_checkpoint(
                "capture", f"pc={machine.pc:#06x} instret={machine.instret}"
            )
        return cls(
            pc=machine.pc,
            halted=machine.halted,
            instret=machine.instret,
            regs=regs,
            mem=mem,
            qregs=qregs,
            output=output,
            digest=_digest(regs, mem,
                           _qat_blobs(backend, qregs, qat_runs, store_chunks),
                           machine.pc, machine.halted,
                           machine.instret, output),
            cycle=cycle,
            store_chunks=store_chunks,
            store_chunk_ways=store_chunk_ways,
            qat_backend=backend,
            qat_ways=machine.ways,
            qat_runs=qat_runs,
        )

    def verify(self) -> bool:
        """True iff the snapshot still matches its integrity digest."""
        t0 = time.perf_counter_ns()
        blobs = _qat_blobs(self.qat_backend, self.qregs, self.qat_runs,
                           self.store_chunks)
        ok = _digest(self.regs, self.mem, blobs, self.pc, self.halted,
                     self.instret, self.output) == self.digest
        if _obs.active:
            _obs.current().checkpoint_op("verify", t0, ok=ok)
        return ok

    def restore(self, machine, verify: bool = True) -> None:
        """Write this snapshot back into ``machine``.

        Raises :class:`~repro.errors.CheckpointError` if ``verify`` is
        set and the digest no longer matches (the checkpoint was
        corrupted after capture), or if the machine runs a different Qat
        substrate, width or RE chunk width than the one captured.  Nothing
        is written before these checks pass.
        """
        t0 = time.perf_counter_ns()
        if verify and not self.verify():
            if _obs.active:
                _obs.current().checkpoint_op("restore", t0, ok=False)
            raise CheckpointError(
                "checkpoint failed integrity verification; refusing to restore"
            )
        mismatch = None
        dense_shape = (NUM_QAT_REGS, words_for_bits(machine.nbits))
        if machine.qat.name != self.qat_backend:
            mismatch = (f"checkpoint captured a {self.qat_backend!r} Qat "
                        f"backend but the machine runs {machine.qat.name!r}")
        elif self.qat_ways is not None and machine.ways != self.qat_ways:
            mismatch = (f"checkpoint is {self.qat_ways}-way but the machine "
                        f"is {machine.ways}-way")
        elif (self.qat_backend == "re"
              and machine.qat.store.chunk_ways != self.store_chunk_ways):
            mismatch = (f"checkpoint holds {self.store_chunk_ways}-way chunks "
                        f"but the machine's store holds "
                        f"{machine.qat.store.chunk_ways}-way chunks")
        elif self.regs.shape != (len(machine.regs),):
            mismatch = (f"checkpoint shape mismatch: regs {self.regs.shape} "
                        f"vs machine ({len(machine.regs)},)")
        elif self.mem.shape != (len(machine.mem),):
            mismatch = (f"checkpoint shape mismatch: mem {self.mem.shape} "
                        f"vs machine ({len(machine.mem)},)")
        elif self.qat_backend == "dense" and self.qregs.shape != dense_shape:
            mismatch = (f"checkpoint shape mismatch: qregs {self.qregs.shape} "
                        f"vs machine {dense_shape}")
        elif self.qat_backend == "re" and any(
                not 0 <= i < len(self.store_chunks)
                for reg in self.qat_runs for i, _ in reg):
            mismatch = (f"checkpoint run lists name a chunk outside its "
                        f"{len(self.store_chunks)} payloads")
        if mismatch is not None:
            if _obs.active:
                _obs.current().checkpoint_op("restore", t0, ok=False)
            raise CheckpointError(mismatch)
        machine.regs[:] = self.regs.tolist()
        machine.mem[:] = np.ascontiguousarray(self.mem, dtype=np.uint16)
        # Whole-memory overwrite: every predecoded instruction is stale.
        machine.invalidate_predecode()
        if self.qat_backend == "dense":
            machine.qat.restore([_from_words(row) for row in self.qregs])
        else:
            chunks = [_from_words(words) for words in self.store_chunks]
            machine.qat.restore(tuple(
                PatternVector(machine.ways,
                              tuple((chunks[i], count) for i, count in reg),
                              machine.qat.store)
                for reg in self.qat_runs))
        machine.pc = self.pc
        machine.halted = self.halted
        machine.instret = self.instret
        machine.output[:] = list(self.output)
        if _obs.active:
            _obs.current().checkpoint_op("restore", t0)
        if _flight.RECORDER.enabled:
            _flight.RECORDER.note_checkpoint(
                "restore", f"pc={self.pc:#06x} instret={self.instret}"
            )

    # -- file round trip -----------------------------------------------------

    def save(self, path: str) -> None:
        """Write the checkpoint to ``path`` (``.npz``, compressed)."""
        header = {
            "version": FORMAT_VERSION,
            "pc": self.pc,
            "halted": self.halted,
            "instret": self.instret,
            "output": list(self.output),
            "digest": self.digest,
            "cycle": self.cycle,
            "store_chunk_ways": self.store_chunk_ways,
            "store_chunk_count": len(self.store_chunks),
            "qat_backend": self.qat_backend,
            "qat_ways": self.qat_ways,
            "qat_runs": [[list(run) for run in reg] for reg in self.qat_runs],
        }
        arrays = {
            "regs": self.regs,
            "mem": self.mem,
            "qregs": self.qregs,
            "header": np.frombuffer(
                json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
            ),
        }
        for i, words in enumerate(self.store_chunks):
            arrays[f"chunk_{i}"] = words
        t0 = time.perf_counter_ns()
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        if _obs.active:
            _obs.current().checkpoint_op("save", t0)
        if _flight.RECORDER.enabled:
            _flight.RECORDER.note_checkpoint("save", path)

    @classmethod
    def load(cls, path: str) -> "Checkpoint":
        """Read a checkpoint written by :meth:`save`.

        Every chunk payload must be stored inline as ``chunk_{i}``; a
        file missing one (such as an older build's ``chunk_refs`` file)
        raises :class:`~repro.errors.CheckpointError` naming the chunk.
        """
        t0 = time.perf_counter_ns()
        try:
            data = np.load(path)
            header = json.loads(bytes(data["header"]).decode("utf-8"))
        except (OSError, ValueError, KeyError) as exc:
            if _obs.active:
                _obs.current().checkpoint_op("load", t0, ok=False)
            raise CheckpointError(f"unreadable checkpoint {path!r}: {exc}") from exc
        if _obs.active:
            _obs.current().checkpoint_op("load", t0)
        if _flight.RECORDER.enabled:
            _flight.RECORDER.note_checkpoint("load", path)
        if header.get("version") != FORMAT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {header.get('version')!r}"
            )
        count = header["store_chunk_count"]
        names = set(data.files)
        for i in range(count):
            if f"chunk_{i}" not in names:
                raise CheckpointError(
                    f"checkpoint {path!r} is missing chunk {i} of {count}"
                )
        chunks = tuple(data[f"chunk_{i}"] for i in range(count))
        return cls(
            pc=header["pc"],
            halted=header["halted"],
            instret=header["instret"],
            regs=data["regs"],
            mem=data["mem"],
            qregs=data["qregs"],
            output=tuple(header["output"]),
            digest=header["digest"],
            cycle=header["cycle"],
            store_chunks=chunks,
            store_chunk_ways=header["store_chunk_ways"],
            qat_backend=header.get("qat_backend", "dense"),
            qat_ways=header.get("qat_ways"),
            qat_runs=tuple(
                tuple((sym, count) for sym, count in reg)
                for reg in header.get("qat_runs", ())
            ),
        )


class AutoCheckpointer:
    """Periodic checkpointing driven by a simulator's run loop.

    Attach as ``sim.checkpointer``; every ``interval`` ticks (one tick
    per retired instruction or pipeline cycle) the machine is
    snapshotted into a ring of the ``keep`` most recent checkpoints.
    """

    def __init__(self, interval: int = 1024, keep: int = 2):
        if interval <= 0:
            raise CheckpointError(f"interval must be positive, got {interval}")
        if keep <= 0:
            raise CheckpointError(f"keep must be positive, got {keep}")
        self.interval = interval
        self.keep = keep
        self.ticks = 0
        self.taken = 0
        self._ring: list[Checkpoint] = []

    def tick(self, machine, cycle: int | None = None) -> Checkpoint | None:
        """One unit of progress; snapshots when the interval elapses."""
        self.ticks += 1
        if self.ticks % self.interval:
            return None
        checkpoint = Checkpoint.take(machine, cycle=cycle)
        self._ring.append(checkpoint)
        if len(self._ring) > self.keep:
            self._ring.pop(0)
        self.taken += 1
        if _obs.active:
            _obs.current().metrics.counter("checkpoint.taken").inc()
        return checkpoint

    @property
    def latest(self) -> Checkpoint | None:
        """Most recent checkpoint, or None before the first interval."""
        return self._ring[-1] if self._ring else None

    @property
    def checkpoints(self) -> list[Checkpoint]:
        """The retained ring, oldest first."""
        return list(self._ring)
