"""Pluggable Qat register substrates: dense vs RE-compressed.

Covers the backend abstraction itself (selection, bounds, snapshots,
fault flips), the qpop measurement-width regression, per-run chunkstore
isolation, and fixed dense<->RE differential programs.  Random programs
on both substrates, and the paper's Figure 10 listing on every engine,
are checked by ``tests/test_conformance.py``.
"""

import pytest

from repro.asm import assemble
from repro.cpu import (
    BACKENDS,
    MAX_RE_WAYS,
    DenseQatBackend,
    FunctionalSimulator,
    MachineState,
    REQatBackend,
    TrapPolicy,
    make_qat_backend,
)
from repro.errors import CheckpointError, SimulatorError, TrapError


def _halted_run(source, ways=8, qat_backend="dense", sim_cls=FunctionalSimulator,
                trap_policy=None):
    sim = sim_cls(ways=ways, qat_backend=qat_backend, trap_policy=trap_policy)
    sim.load(assemble(source))
    sim.run()
    return sim


class TestSelection:
    def test_backend_names(self):
        assert BACKENDS == ("dense", "re")

    def test_factory_builds_both(self):
        assert make_qat_backend("dense", 8).name == "dense"
        assert make_qat_backend("re", 8).name == "re"

    def test_factory_rejects_unknown(self):
        with pytest.raises(SimulatorError, match="unknown Qat backend"):
            make_qat_backend("sparse", 8)

    def test_factory_accepts_instance(self):
        backend = REQatBackend(8)
        assert make_qat_backend(backend, 8) is backend
        with pytest.raises(SimulatorError, match="8-way"):
            make_qat_backend(backend, 10)

    def test_dense_bound_is_max_dense_ways(self):
        # Regression: MachineState hardcoded ways <= 20 while the AoB
        # layer advertised MAX_DENSE_WAYS = 26.  21-way must now build.
        machine = MachineState(ways=21)
        assert machine.nbits == 1 << 21

    def test_dense_overflow_names_re_backend(self):
        with pytest.raises(SimulatorError, match="'re' backend"):
            MachineState(ways=27)

    def test_re_bounds(self):
        with pytest.raises(SimulatorError):
            REQatBackend(5)
        with pytest.raises(SimulatorError):
            REQatBackend(MAX_RE_WAYS + 1)


class TestQpopSaturation:
    """The measurement-width bug: pop's 16-bit destination.

    A 17-way all-ones register has 65,536 ones after channel 65,535 --
    exactly 0x10000, which the old ``& 0xFFFF`` truncation silently
    wrapped to 0.  The count must saturate to 0xFFFF instead, and trap
    under ``strict_qat``.
    """

    SOURCE = "one\t@5\nlex\t$0,-1\npop\t$0,@5\nlex\t$rv,0\nsys\n"

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_saturates_at_wraparound_boundary(self, backend):
        sim = _halted_run(self.SOURCE, ways=17, qat_backend=backend)
        assert sim.machine.read_reg(0) == 0xFFFF

    def test_strict_qat_traps_on_overflow(self):
        with pytest.raises(TrapError, match="exceeding the 16-bit"):
            _halted_run(self.SOURCE, ways=17,
                        trap_policy=TrapPolicy(strict_qat=True))

    def test_in_range_count_unchanged(self):
        # Exactly at the boundary from below: a 16-way all-ones register
        # has 65,535 ones after channel 0 -- fits exactly, no trap.
        source = "one\t@5\nlex\t$0,0\npop\t$0,@5\nlex\t$rv,0\nsys\n"
        sim = _halted_run(source, ways=16,
                          trap_policy=TrapPolicy(strict_qat=True))
        assert sim.machine.read_reg(0) == 0xFFFF


class TestStoreIsolation:
    def test_reset_default_stores(self):
        from repro.pattern import default_store, reset_default_stores

        before = default_store(8)
        assert default_store(8) is before
        reset_default_stores()
        assert default_store(8) is not before

    def test_re_backends_never_share_stores(self):
        a, b = REQatBackend(8), REQatBackend(8)
        assert a.store is not b.store
        from repro.pattern import default_store

        assert a.store is not default_store(8)


_QAT_SOURCES = {
    "had_and_next": (
        "had\t@1,0\nhad\t@2,1\nand\t@3,@1,@2\nlex\t$0,0\n"
        "next\t$0,@3\nlex\t$rv,0\nsys\n"
    ),
    "xor_not_meas": (
        "had\t@1,2\none\t@2\nxor\t@3,@1,@2\nnot\t@3\nlex\t$0,5\n"
        "meas\t$0,@3\nlex\t$rv,0\nsys\n"
    ),
    "cnot_swap_pop": (
        "had\t@1,0\nhad\t@2,3\ncnot\t@1,@2\nswap\t@1,@2\nlex\t$0,1\n"
        "pop\t$0,@1\nlex\t$rv,0\nsys\n"
    ),
    "ccnot_cswap": (
        "had\t@1,0\nhad\t@2,1\nhad\t@3,2\nccnot\t@1,@2,@3\n"
        "cswap\t@2,@3,@1\nzero\t@4\nor\t@4,@2,@3\nlex\t$0,0\n"
        "next\t$0,@4\nlex\t$rv,0\nsys\n"
    ),
}


class TestDifferential:
    """Dense and RE must be architecturally indistinguishable."""

    @pytest.mark.parametrize("name", sorted(_QAT_SOURCES))
    def test_fixed_programs_agree(self, name):
        source = _QAT_SOURCES[name]
        results = {}
        for backend in BACKENDS:
            sim = _halted_run(source, ways=8, qat_backend=backend)
            results[backend] = (
                tuple(int(r) for r in sim.machine.regs),
                tuple(sim.machine.output),
                [(t.cause, t.pc) for t in sim.machine.traps],
            )
        assert results["dense"] == results["re"]


class TestFaultSurfaces:
    def test_flip_bit_agrees_with_dense(self):
        dense = MachineState(ways=8, qat_backend="dense")
        comp = MachineState(ways=8, qat_backend="re")
        for machine in (dense, comp):
            machine.qat.had(1, 2)
            machine.flip_qreg_bit(1, 2, 17)
            machine.flip_qreg_bit(1, 0, 0)
        assert (dense.read_qreg(1).words.tobytes()
                == comp.read_qreg(1).words.tobytes())

    def test_flip_never_corrupts_shared_chunks(self):
        # @1 and @2 share every interned chunk (same hadamard); a flip
        # against @1 must leave @2's value byte-identical.
        machine = MachineState(ways=10, qat_backend="re")
        machine.qat.had(1, 3)
        machine.qat.had(2, 3)
        before = machine.read_qreg(2).words.tobytes()
        machine.flip_qreg_bit(1, 4, 33)
        assert machine.read_qreg(2).words.tobytes() == before
        flipped = machine.read_qreg(1)
        channel = (4 << 6) | 33
        reference = DenseQatBackend(10)
        reference.had(1, 3)
        reference.flip_bit(1, 4, 33)
        assert flipped.words.tobytes() == reference.read(1).words.tobytes()
        assert flipped.meas(channel) != machine.read_qreg(2).meas(channel)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("word, bit", [(4, 0), (0, 64), (0, -1), (-1, 63)])
    def test_out_of_range_flip_is_refused(self, backend, word, bit):
        # Fault events also arrive from journals and --resume; a flip
        # outside the 256-channel register must be refused on both
        # substrates, not wrap (RE) or escape as a raw IndexError (dense).
        machine = MachineState(ways=8, qat_backend=backend)
        machine.qat.had(1, 2)
        before = machine.read_qreg(1)
        with pytest.raises(SimulatorError, match="outside"):
            machine.flip_qreg_bit(1, word, bit)
        assert machine.read_qreg(1) == before
        machine.flip_qreg_bit(1, 3, 63)  # the last channel is in range
        assert machine.read_qreg(1).meas(255) != before.meas(255)

    def test_injected_event_routes_through_backend(self):
        from repro.faults.inject import FaultEvent, apply_event

        machine = MachineState(ways=8, qat_backend="re")
        machine.qat.one(7)
        apply_event(machine, FaultEvent(step=0, target="qreg", index=7,
                                        word=1, bit=9))
        assert machine.qat.meas(7, (1 << 6) | 9) == 0


class TestCheckpoint:
    def _partial_fig10(self, backend):
        from repro.apps import fig10_program

        sim = FunctionalSimulator(ways=8, qat_backend=backend)
        sim.load(fig10_program())
        for _ in range(40):
            sim.step()
        return sim

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_roundtrip_resumes_to_same_result(self, backend, tmp_path):
        from repro.faults.checkpoint import Checkpoint

        sim = self._partial_fig10(backend)
        checkpoint = Checkpoint.take(sim.machine)
        assert checkpoint.qat_backend == backend
        assert checkpoint.verify()
        sim.run()
        reference = (sim.machine.read_reg(0), sim.machine.read_reg(1))

        path = tmp_path / "cp.npz"
        checkpoint.save(str(path))
        loaded = Checkpoint.load(str(path))
        assert loaded.verify()
        resumed = FunctionalSimulator(ways=8, qat_backend=backend)
        loaded.restore(resumed.machine)
        resumed.run()
        assert (resumed.machine.read_reg(0),
                resumed.machine.read_reg(1)) == reference == (5, 3)

    def test_backend_mismatch_refused(self):
        from repro.faults.checkpoint import Checkpoint

        checkpoint = Checkpoint.take(self._partial_fig10("re").machine)
        dense = FunctionalSimulator(ways=8, qat_backend="dense")
        with pytest.raises(CheckpointError, match="'re' Qat backend"):
            checkpoint.restore(dense.machine)

    def test_re_corruption_detected(self):
        from dataclasses import replace

        from repro.faults.checkpoint import Checkpoint

        checkpoint = Checkpoint.take(self._partial_fig10("re").machine)
        runs = list(checkpoint.qat_runs)
        first = next(i for i, r in enumerate(runs) if r)
        (sym, count), *rest = runs[first]
        runs[first] = tuple([(sym, count + 1)] + rest)
        corrupted = replace(checkpoint, qat_runs=tuple(runs))
        assert not corrupted.verify()
        target = FunctionalSimulator(ways=8, qat_backend="re")
        with pytest.raises(CheckpointError, match="integrity"):
            corrupted.restore(target.machine)


class TestWideWays:
    def test_fig10_at_24_way_in_bounded_memory(self):
        # A dense register file can grow to 256 * 2^24 bits = 512 MiB;
        # the RE backend runs it in O(runs) and still factors 15.
        from repro.apps import fig10_program, run_factor_program

        sim, regs = run_factor_program(fig10_program(), ways=24,
                                       simulator="functional",
                                       qat_backend="re")
        assert regs == (5, 3)
        stats = sim.machine.qat.stats()
        assert stats["backend"] == "re"
        assert stats["total_runs"] < 100_000

    def test_constants_cost_o_runs_at_max_ways(self):
        backend = REQatBackend(MAX_RE_WAYS)
        backend.one(0)
        backend.had(1, MAX_RE_WAYS - 1)
        backend.binary("xor", 2, 0, 1)
        assert backend.vector(2).num_runs <= 4
        # ones ^ had(31): the bottom 2^31 channels are all ones, so the
        # raw (pre-saturation) count after channel 0 spans 31 bits.
        assert backend.pop_after(2, 0) == (1 << 31) - 1
        assert backend.pop_after(2, 1 << 31) == 0


class TestCampaignAndBench:
    def test_campaign_report_carries_backend(self):
        from repro.faults.campaign import run_campaign

        report = run_campaign(runs=4, seed=11, qat_backend="re")
        assert report["qat_backend"] == "re"
        assert sum(report["summary"][k]
                   for k in ("detected", "masked", "silent")) == 4
