"""Multi-cycle simulator: per-class cycle accounting."""

import pytest

from repro.asm import assemble
from repro.cpu import CycleCosts, MultiCycleSimulator
from repro.errors import HaltedError, SimulatorError


class TestCycleCosts:
    def test_default_costs(self):
        costs = CycleCosts()
        assert costs.cycles_for("add") == 3
        assert costs.cycles_for("load") == 4
        assert costs.cycles_for("mul") == 4

    def test_two_word_instructions_pay_extra_fetch(self):
        costs = CycleCosts()
        assert costs.cycles_for("qand") == costs.qat + 1
        assert costs.cycles_for("qnot") == costs.qat

    def test_custom_costs(self):
        costs = CycleCosts(alu=1, extra_fetch_word=2)
        assert costs.cycles_for("add") == 1
        assert costs.cycles_for("qxor") == costs.qat + 2


class TestExecution:
    def test_total_cycles(self):
        sim = MultiCycleSimulator(ways=6)
        sim.load(assemble("lex $0, 1\nhad @0, 2\nand @1, @0, @0\nsys\n"))
        total = sim.run()
        costs = sim.costs
        expected = (
            costs.cycles_for("lex")
            + costs.cycles_for("qhad")
            + costs.cycles_for("qand")
            + costs.cycles_for("sys")
        )
        assert total == expected

    def test_architectural_equivalence_with_functional(self):
        from repro.cpu import FunctionalSimulator
        import numpy as np

        src = (
            "lex $0, 3\nloop: had @0, 1\nnext $1, @0\nadd $2, $1\n"
            "lex $3, -1\nadd $0, $3\nbrt $0, loop\nsys\n"
        )
        p = assemble(src)
        f = FunctionalSimulator(ways=6)
        f.load(p)
        f.run()
        m = MultiCycleSimulator(ways=6)
        m.load(p)
        m.run()
        assert np.array_equal(f.machine.regs, m.machine.regs)
        assert f.machine.qat.snapshot() == m.machine.qat.snapshot()

    def test_cpi_above_one(self):
        sim = MultiCycleSimulator(ways=6)
        sim.load(assemble("lex $0, 1\nsys\n"))
        sim.run()
        assert sim.cpi == 3.0

    def test_step_after_halt(self):
        sim = MultiCycleSimulator(ways=6)
        sim.load(assemble("sys\n"))
        sim.run()
        with pytest.raises(HaltedError):
            sim.step()

    def test_runaway_guard(self):
        sim = MultiCycleSimulator(ways=6)
        sim.load(assemble("spin: br spin\n"))
        with pytest.raises(SimulatorError):
            sim.run(max_steps=50)

    def test_cpi_zero_before_running(self):
        sim = MultiCycleSimulator(ways=6)
        assert sim.cpi == 0.0
