"""S31 experiment: pipelined simulator timing and state equivalence.

Covers the paper's section 3.1 observables: sustained 1 instruction per
cycle absent interlocks, 4- and 5-stage variants, two-word Qat fetch
handling, plus the hazard machinery.  Architectural equivalence with
the functional reference is checked in ``tests/test_conformance.py``.
"""

import pytest

from repro.asm import assemble
from repro.cpu import PipelineConfig, PipelinedSimulator
from repro.errors import SimulatorError

from tests.conformance import store_ahead


def run_pipeline(src, ways=6, **cfg):
    if "sys" not in src:
        src += "\nlex $rv, 0\nsys\n"
    sim = PipelinedSimulator(ways=ways, config=PipelineConfig(**cfg))
    sim.load(assemble(src))
    sim.run()
    return sim


class TestSustainedThroughput:
    def test_straight_line_cpi_approaches_one(self):
        """Section 3.1: 1 instruction/cycle absent interlocks."""
        body = "\n".join(f"lex ${i % 8}, {i % 100}" for i in range(400))
        sim = run_pipeline(body)
        assert sim.stats.cpi < 1.01

    def test_fill_overhead_is_pipeline_depth(self):
        sim = run_pipeline("lex $0, 1")  # 3 instructions with epilogue
        # cycles = instructions + fill (2 for the 4-stage: IF and ID ahead of EX)
        assert sim.stats.cycles == sim.stats.retired + 2

    def test_qat_heavy_code_also_sustains(self):
        """1-word Qat ops (had/not/zero) flow at 1 per cycle too."""
        body = "\n".join(f"had @{i % 16}, {i % 8}" for i in range(200))
        sim = run_pipeline(body)
        assert sim.stats.cpi < 1.02


class TestVariableLengthFetch:
    def test_two_word_instructions_cost_one_bubble(self):
        body = "\n".join("and @2, @0, @1" for _ in range(100))
        sim = run_pipeline(body)
        assert sim.stats.fetch_extra == 100
        # ~2 cycles per 2-word instruction
        assert 200 <= sim.stats.cycles <= 210

    def test_mixed_width_stream(self):
        sim = run_pipeline("had @0, 1\nand @1, @0, @0\nnot @1\nxor @2, @0, @1")
        assert sim.stats.fetch_extra == 2  # and + xor


class TestDataHazards:
    def test_forwarding_hides_raw(self):
        sim = run_pipeline("lex $0, 5\nadd $0, $0\nadd $0, $0", forwarding=True)
        assert sim.stats.stall_data == 0
        assert sim.machine.read_reg(0) == 20

    def test_no_forwarding_stalls(self):
        sim = run_pipeline("lex $0, 5\nadd $0, $0\nadd $0, $0", forwarding=False)
        assert sim.stats.stall_data == 2
        assert sim.machine.read_reg(0) == 20

    def test_qat_raw_hazard_interlocks(self):
        """Coprocessor values participate in interlock decisions: the
        in-place not reads @0 while the had that writes it is in EX."""
        sim = run_pipeline("had @0, 1\nnot @0\nnot @0", forwarding=False)
        assert sim.stats.stall_data > 0
        from repro.aob import AoB

        assert sim.machine.read_qreg(0) == AoB.hadamard(6, 1)

    def test_meas_depends_on_qat_producer(self):
        """meas reads the @-register an older Qat op writes."""
        sim = run_pipeline(
            "had @0, 2\nlex $0, 4\nmeas $0, @0", forwarding=False
        )
        assert sim.machine.read_reg(0) == 1
        assert sim.stats.stall_data > 0

    def test_load_use_bubble_in_5_stage(self):
        src = "loadi $1, 0x100\nlex $0, 9\nstore $0, $1\nload $2, $1\nadd $2, $2"
        four = run_pipeline(src, stages=4)
        five = run_pipeline(src, stages=5)
        assert four.stats.stall_load_use == 0
        assert five.stats.stall_load_use == 1
        assert four.machine.read_reg(2) == five.machine.read_reg(2) == 18

    def test_independent_instructions_no_stall(self):
        sim = run_pipeline("lex $0, 1\nlex $1, 2\nadd $0, $1", forwarding=False)
        # only the add depends on the two lex results
        assert sim.stats.stall_data <= 2


class TestControlHazards:
    def test_taken_branch_two_cycle_penalty(self):
        # Both targets are the fall-through address: a taken zero-offset
        # brt, and a jumpr, which is always taken.
        for setup, branch in (("lex $0, 1", "brt $0, skip"),
                              ("loadi $0, skip", "jumpr $0")):
            base = run_pipeline(f"{setup}\nlex $1, 1\nskip:\nlex $2, 1")
            taken = run_pipeline(f"{setup}\n{branch}\nskip:\nlex $2, 1")
            # Same dynamic instruction count; the taken branch costs
            # exactly the 2-cycle flush.
            assert taken.stats.branch_flushes == 1
            assert taken.stats.retired == base.stats.retired
            assert taken.stats.cycles == base.stats.cycles + 2

    @pytest.mark.parametrize("stages", [4, 5])
    def test_store_into_fetched_word_refetches(self, stages):
        # The store rewrites the instruction right behind it, already
        # fetched: that fetch is squashed and redone with the new word,
        # at a taken branch's 2-cycle penalty but not counted as one.
        sim = run_pipeline(store_ahead(0), stages=stages)
        assert sim.machine.read_reg(3) == 42
        assert sim.stats.branch_flushes == 0
        assert sim.stats.squashed == 1
        assert sim.stats.cycles == sim.stats.retired + 2 + 2

    def test_untaken_branch_no_penalty(self):
        sim = run_pipeline("lex $0, 0\nbrt $0, skip\nlex $1, 1\nskip:\nlex $2, 1")
        assert sim.stats.branch_flushes == 0

    def test_jumpr_flushes(self):
        sim = run_pipeline(
            "loadi $3, target\njumpr $3\nlex $0, 99\ntarget:\nlex $1, 7"
        )
        assert sim.stats.branch_flushes >= 1
        assert sim.machine.read_reg(0) == 0

    def test_loop_penalty_scales_with_iterations(self):
        src = (
            "lex $0, 10\nloop:\nlex $2, -1\nadd $0, $2\nbrt $0, loop"
        )
        sim = run_pipeline(src)
        assert sim.stats.branch_flushes == 9

    def test_wrong_path_side_effects_squashed(self):
        """Wrong-path instructions must not change architectural state."""
        sim = run_pipeline(
            "lex $0, 1\nbrt $0, skip\nlex $5, 77\nlex $6, 88\nskip:\nlex $2, 1"
        )
        assert sim.machine.read_reg(5) == 0
        assert sim.machine.read_reg(6) == 0


class TestStructuralHazard:
    def test_single_write_port_penalizes_swaps(self):
        src = "had @0, 1\nhad @1, 2\none @2\nswap @0, @1\ncswap @0, @1, @2"
        fast = run_pipeline(src, second_qat_write_port=True)
        slow = run_pipeline(src, second_qat_write_port=False)
        assert slow.stats.stall_structural == 2
        # Part of the extra EX time hides under the 2-word fetch bubble of
        # the following instruction, so the visible cost is 1-2 cycles.
        assert fast.stats.cycles < slow.stats.cycles <= fast.stats.cycles + 2
        assert fast.machine.qat.snapshot() == slow.machine.qat.snapshot()


class TestConfig:
    def test_bad_stage_count(self):
        with pytest.raises(ValueError):
            PipelineConfig(stages=6)

    def test_runaway_guard(self):
        sim = PipelinedSimulator(ways=6)
        sim.load(assemble("spin: br spin\n"))
        with pytest.raises(SimulatorError):
            sim.run(max_cycles=200)

    def test_executing_garbage_raises(self):
        sim = PipelinedSimulator(ways=6)
        sim.load([0x6000])  # unassigned opcode on the true path
        with pytest.raises(SimulatorError):
            sim.run(max_cycles=50)
