"""Checkpoint/recovery: snapshots, integrity digests, auto-checkpointing."""

import json

import numpy as np
import pytest

from repro.asm import assemble
from repro.cpu import (
    FunctionalSimulator,
    MultiCycleSimulator,
    PipelinedSimulator,
    TrapPolicy,
)
from repro.errors import CheckpointError
from repro.faults import AutoCheckpointer, Checkpoint
from repro.pattern import ChunkStore, PatternVector

COUNTDOWN = """
    lex $0, 10
loop:
    lex $1, -1
    add $0, $1
    brt $0, loop
    lex $rv, 0
    sys
"""


def _run_some(steps=5):
    sim = FunctionalSimulator(ways=6)
    sim.load(assemble(COUNTDOWN))
    for _ in range(steps):
        sim.step()
    return sim


class TestCheckpoint:
    def test_round_trip_restores_state(self):
        sim = _run_some(5)
        ckpt = Checkpoint.take(sim.machine)
        assert ckpt.verify()
        reference = sim.machine.read_reg(0)
        sim.run(10_000)  # run to completion, clobbering state
        assert sim.machine.halted
        ckpt.restore(sim.machine)
        assert sim.machine.read_reg(0) == reference
        assert sim.machine.pc == ckpt.pc
        assert not sim.machine.halted

    def test_restored_machine_replays_identically(self):
        sim = _run_some(4)
        ckpt = Checkpoint.take(sim.machine)
        sim.run(10_000)
        final = tuple(int(r) for r in sim.machine.regs)
        ckpt.restore(sim.machine)
        sim.run(10_000)
        assert tuple(int(r) for r in sim.machine.regs) == final

    def test_corruption_detected_on_restore(self):
        sim = _run_some(3)
        ckpt = Checkpoint.take(sim.machine)
        ckpt.mem[100] ^= np.uint16(1)
        assert not ckpt.verify()
        with pytest.raises(CheckpointError):
            ckpt.restore(sim.machine)

    def test_corruption_override(self):
        sim = _run_some(3)
        ckpt = Checkpoint.take(sim.machine)
        ckpt.mem[100] ^= np.uint16(1)
        ckpt.restore(sim.machine, verify=False)  # explicit opt-out works
        assert int(sim.machine.mem[100]) == int(ckpt.mem[100])

    def test_shape_mismatch_rejected(self):
        sim = _run_some(2)
        ckpt = Checkpoint.take(sim.machine)
        other = FunctionalSimulator(ways=8)
        with pytest.raises(CheckpointError):
            ckpt.restore(other.machine)

    def test_save_load_round_trip(self, tmp_path):
        sim = _run_some(6)
        ckpt = Checkpoint.take(sim.machine, cycle=17)
        path = str(tmp_path / "state.npz")
        ckpt.save(path)
        loaded = Checkpoint.load(path)
        assert loaded.verify()
        assert loaded.pc == ckpt.pc
        assert loaded.cycle == 17
        assert (loaded.regs == ckpt.regs).all()
        assert (loaded.mem == ckpt.mem).all()

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.npz"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            Checkpoint.load(str(path))

    def test_load_refuses_missing_chunk_payload(self, tmp_path):
        # Older builds could write pinned chunks as ``chunk_refs`` digest
        # references into an external chunk cache instead of inline
        # ``chunk_{i}`` arrays; such a file must refuse cleanly.
        from repro.apps import fig10_program, run_factor_program

        sim, _ = run_factor_program(fig10_program(), ways=8,
                                    simulator="functional", qat_backend="re")
        path = str(tmp_path / "cp.npz")
        Checkpoint.take(sim.machine).save(path)
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        header = json.loads(bytes(arrays["header"]).decode("utf-8"))
        assert header["store_chunk_count"] >= 3
        header["chunk_refs"] = {"2": "ab" * 32}
        arrays["header"] = np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
        del arrays["chunk_2"]
        with open(path, "wb") as handle:
            np.savez_compressed(handle, **arrays)
        with pytest.raises(CheckpointError, match="missing chunk 2"):
            Checkpoint.load(path)

    def test_captures_chunkstore(self):
        store = ChunkStore(6)
        pv = PatternVector.hadamard(8, 1, store=store)
        sim = _run_some(2)
        ckpt = Checkpoint.take(sim.machine, store=store)
        assert len(ckpt.store_chunks) == len(store.chunks())
        # Corrupt the store in place, then restore it from the snapshot.
        from repro.faults import flip_chunk_bit

        flip_chunk_bit(store, pv.runs[0][0], 1)
        ckpt.restore(sim.machine, store=store)
        assert store.degraded == 0
        assert pv.meas(1) == PatternVector.hadamard(8, 1, store=store).meas(1)


class TestAutoCheckpointer:
    def test_periodic_snapshots_during_run(self):
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble(COUNTDOWN))
        sim.checkpointer = AutoCheckpointer(interval=8, keep=2)
        sim.run(10_000)
        assert sim.checkpointer.taken >= 2
        assert len(sim.checkpointer.checkpoints) == 2
        assert sim.checkpointer.latest is not None

    def test_watchdog_halt_is_recoverable(self):
        """The crash-recovery story: runaway stops cleanly, last good
        checkpoint restores to a pre-runaway machine."""
        sim = FunctionalSimulator(ways=6, trap_policy=TrapPolicy.halting())
        sim.load(assemble("lex $0, 1\nloop:\nbrt $0, loop\n"))
        sim.checkpointer = AutoCheckpointer(interval=16, keep=2)
        sim.run(100)
        assert sim.machine.halted  # watchdog, not sys-halt
        ckpt = sim.checkpointer.latest
        assert ckpt is not None and ckpt.verify()
        ckpt.restore(sim.machine)
        assert not sim.machine.halted
        assert sim.machine.read_reg(0) == 1

    @pytest.mark.parametrize(
        "sim_cls", [MultiCycleSimulator, PipelinedSimulator],
        ids=["multicycle", "pipelined"],
    )
    def test_timed_simulators_drive_checkpointer(self, sim_cls):
        sim = sim_cls(ways=6)
        sim.load(assemble(COUNTDOWN))
        sim.checkpointer = AutoCheckpointer(interval=8, keep=3)
        sim.run(10_000)
        assert sim.checkpointer.taken >= 1
        assert sim.checkpointer.latest.verify()

    def test_rejects_bad_config(self):
        with pytest.raises(CheckpointError):
            AutoCheckpointer(interval=0)
        with pytest.raises(CheckpointError):
            AutoCheckpointer(keep=0)
