"""Checkpoint/recovery: snapshots, integrity digests, auto-checkpointing."""

import dataclasses
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
from repro.cpu.qat_backend import REQatBackend
from repro.errors import CheckpointError
from repro.faults import AutoCheckpointer, Checkpoint
from repro.faults.checkpoint import _digest, _qat_blobs

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

    def test_short_memory_rejected_before_any_write(self):
        sim = _run_some(2)
        ckpt = Checkpoint.take(sim.machine)
        mem = ckpt.mem[:100]
        short = dataclasses.replace(ckpt, mem=mem, digest=_digest(
            ckpt.regs, mem, _qat_blobs("dense", ckpt.qregs, (), ()),
            ckpt.pc, ckpt.halted, ckpt.instret, ckpt.output))
        assert short.verify()
        sim.run(10_000)  # move the machine away from the checkpoint
        machine = sim.machine
        regs, mem_bytes, pc = list(machine.regs), bytes(machine.mem), machine.pc
        with pytest.raises(CheckpointError, match="mem"):
            short.restore(machine)
        assert machine.regs == regs
        assert bytes(machine.mem) == mem_bytes
        assert machine.pc == pc

    def test_chunk_width_mismatch_rejected_before_any_write(self):
        """An RE checkpoint only restores into a store of its chunk width."""
        program = assemble("had @0, 1\nhad @1, 5\nlex $0, 7\nlex $rv, 0\n"
                           "sys\n")
        source = FunctionalSimulator(ways=8,
                                     qat_backend=REQatBackend(8, chunk_ways=6))
        source.load(program)
        source.run()
        ckpt = Checkpoint.take(source.machine)
        target = FunctionalSimulator(ways=8, qat_backend="re")
        target.load(assemble("had @0, 3\nlex $2, 9\nlex $rv, 0\nsys\n"))
        target.run()
        machine = target.machine
        regs, mem, pc = list(machine.regs), bytes(machine.mem), machine.pc
        values = [machine.read_qreg(q) for q in range(256)]
        with pytest.raises(CheckpointError, match="6-way chunks"):
            ckpt.restore(machine)
        assert machine.regs == regs
        assert bytes(machine.mem) == mem
        assert machine.pc == pc
        assert [machine.read_qreg(q) for q in range(256)] == values

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
        sim = FunctionalSimulator(ways=8, qat_backend="re")
        sim.load(assemble("had @0, 1\nhad @1, 5\nlex $rv, 0\nsys\n"))
        sim.run()
        machine = sim.machine
        values = [machine.read_qreg(q) for q in range(3)]
        ckpt = Checkpoint.take(machine)
        # Each register of an 8-way machine is one 8-way chunk: the
        # checkpoint holds the two constant chunks, H(1) and H(5).
        payloads = {int.from_bytes(w.tobytes(), "little")
                    for w in ckpt.store_chunks}
        assert len(payloads) == len(ckpt.store_chunks) == 4
        # Clobber the registers, then restore them from the snapshot.
        machine.qat.one(0)
        machine.qat.zero(1)
        ckpt.restore(machine)
        assert [machine.read_qreg(q) for q in range(3)] == values

    def test_re_checkpoint_holds_only_live_chunks(self, tmp_path):
        """A checkpoint after a long run saves the chunks its registers
        hold (plus the two constant chunks), not every chunk the run
        ever made, and round-trips through a file."""
        program = assemble(
            "had @0, 0\nhad @1, 2\nhad @2, 4\nhad @4, 1\nhad @5, 3\n"
            "had @6, 5\nlex $0, 100\n"
            "loop:\n"
            "xor @3, @0, @1\nand @0, @3, @4\nor @1, @0, @5\nnot @2\n"
            "xor @2, @2, @3\nxor @4, @4, @2\nand @5, @6, @1\n"
            "xor @6, @6, @0\n"
            "lex $1, -1\nadd $0, $1\nbrt $0, loop\n"
            "lex $rv, 0\nsys\n")
        sim = FunctionalSimulator(ways=10, qat_backend=REQatBackend(
            10, chunk_ways=6))
        sim.load(program)
        sim.run(100_000)
        assert sim.machine.halted
        machine = sim.machine
        live = {chunk for pv in machine.qat.regs for chunk, _ in pv.runs}
        store = machine.qat.store
        ckpt = Checkpoint.take(machine)
        payloads = [int.from_bytes(w.tobytes(), "little")
                    for w in ckpt.store_chunks]
        held = live | {store.zero_id, store.one_id}
        assert len(payloads) == len(held)
        assert set(payloads) == held
        assert payloads[:2] == [store.zero_id, store.one_id]
        values = [machine.read_qreg(q) for q in range(256)]
        path = str(tmp_path / "re.npz")
        ckpt.save(path)
        fresh = FunctionalSimulator(ways=10, qat_backend=REQatBackend(
            10, chunk_ways=6))
        fresh.load(program)
        Checkpoint.load(path).restore(fresh.machine)
        assert [fresh.machine.read_qreg(q) for q in range(256)] == values

    def test_re_run_list_outside_payloads_rejected(self):
        sim = FunctionalSimulator(ways=8, qat_backend="re")
        sim.load(assemble("had @0, 1\nlex $rv, 0\nsys\n"))
        sim.run()
        ckpt = Checkpoint.take(sim.machine)
        runs = (((len(ckpt.store_chunks), 1),),) + ckpt.qat_runs[1:]
        bad = dataclasses.replace(ckpt, qat_runs=runs)
        with pytest.raises(CheckpointError, match="outside"):
            bad.restore(sim.machine, verify=False)


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
