"""Fast-path execution engine: loop selection, invalidation, and fan-out.

The contract of :mod:`repro.cpu.fastpath` is *architectural
invisibility*: the stripped loop and its translated blocks must match
the observed loop in every observable (``tests/test_conformance.py``
checks that on random programs), the predecode cache and the blocks
must survive self-modifying code and fault injection, and the
``--jobs`` fan-out of campaigns must merge back to the serial report
exactly.
"""

from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.asm import assemble
from repro.cpu import (
    BatchFunctionalSimulator,
    FunctionalSimulator,
    MultiCycleSimulator,
    PipelinedSimulator,
    fastpath,
)
from repro.faults.inject import FaultEvent, FaultPlan, apply_event
from repro.cpu.exec_core import FAST_HANDLERS
from repro.faults.traps import TrapPolicy
from repro.isa import INSTRUCTIONS

from tests.conformance import (BACKENDS, STALLED_FALL_THROUGH, STORE_AT_ZERO,
                               Program, check, every_leader_hot, oracle,
                               run_engine, store_ahead)

SIMS = [FunctionalSimulator, MultiCycleSimulator, PipelinedSimulator]
HOT_LOOP = Path(__file__).resolve().parents[1] / "examples" / "hot_loop.s"


class TestLoopSelection:
    def test_observer_forces_slow_path(self):
        from repro import obs

        sim = FunctionalSimulator(ways=6)
        assert fastpath.eligible(sim)
        with obs.capture():
            assert not fastpath.eligible(sim)
        assert fastpath.eligible(sim)


class TestPredecodeCache:
    def test_entries_interned_across_machines(self):
        words = assemble("lex $0, 5\nlex $rv, 0\nsys\n").words
        a = FunctionalSimulator(ways=6)
        b = FunctionalSimulator(ways=6)
        a.load(list(words))
        b.load(list(words))
        ea = fastpath.cache_for(a.machine).lookup(a.machine.mem, 0)
        eb = fastpath.cache_for(b.machine).lookup(b.machine.mem, 0)
        assert ea is eb  # process-wide interning by bit pattern

    def test_two_word_invalidation_covers_prefix(self):
        # A store into the *second* word of a two-word Qat instruction
        # must also evict the entry cached at the first word.
        words = assemble("and @2, @0, @1\nlex $rv, 0\nsys\n").words
        sim = FunctionalSimulator(ways=6)
        sim.load(list(words))
        cache = fastpath.cache_for(sim.machine)
        entry = cache.lookup(sim.machine.mem, 0)
        assert entry.words == 2
        assert 0 in cache.entries
        sim.machine.write_mem(1, 0x1234)
        assert 0 not in cache.entries

    def test_invalidate_at_address_zero_does_not_wrap(self):
        # Regression: a store to address 0 used to probe word -1, which
        # wrapped to the top of the 2^16-word space and evicted whatever
        # entry happened to live at 0xFFFF.
        words = assemble("and @2, @0, @1\nlex $rv, 0\nsys\n").words
        sim = FunctionalSimulator(ways=6)
        sim.load(list(words))
        cache = fastpath.cache_for(sim.machine)
        entry = cache.lookup(sim.machine.mem, 0)
        assert entry.words == 2
        # Plant a synthetic two-word entry at the very top.  One cannot
        # arise naturally (it would be truncated), which is exactly why
        # the wrapped probe went unnoticed.
        cache.entries[0xFFFF] = entry
        sim.machine.write_mem(0, 0x1234)
        assert 0 not in cache.entries
        assert 0xFFFF in cache.entries

    def test_two_word_invalidation_at_top_edge(self):
        # A two-word Qat instruction straddling 0xFFFE/0xFFFF: a store
        # into its second (last-addressable) word must evict the prefix.
        words = assemble("and @2, @0, @1\n").words
        sim = FunctionalSimulator(ways=6)
        sim.load([0])
        sim.machine.write_mem(0xFFFE, words[0])
        sim.machine.write_mem(0xFFFF, words[1])
        cache = fastpath.cache_for(sim.machine)
        entry = cache.lookup(sim.machine.mem, 0xFFFE)
        assert entry.words == 2
        sim.machine.write_mem(0xFFFF, 0x0001)
        assert 0xFFFE not in cache.entries

    def test_self_modifying_store_to_address_zero(self):
        # Behavioral check for the same regression: rewriting word 0
        # (already executed) must not disturb later execution.
        sim = FunctionalSimulator(ways=6)
        sim.load(assemble(STORE_AT_ZERO))
        sim.run(max_steps=100)
        assert sim.machine.read_reg(3) == 9

    @pytest.mark.parametrize("sim_cls", SIMS)
    def test_self_modifying_program(self, sim_cls):
        """A store rewrites ``lex $3, 2`` well before fetch reaches it."""
        sim = sim_cls(ways=6)
        sim.load(assemble(store_ahead(8)))
        sim.run()
        assert sim.machine.read_reg(3) == 42

    def test_fault_injection_invalidates(self):
        from repro.faults.inject import FaultEvent, apply_event

        words = assemble("lex $0, 5\nlex $rv, 0\nsys\n").words
        sim = FunctionalSimulator(ways=6)
        sim.load(list(words))
        cache = fastpath.cache_for(sim.machine)
        cache.lookup(sim.machine.mem, 0)
        assert 0 in cache.entries
        apply_event(sim.machine,
                    FaultEvent(step=0, target="mem", index=0, word=0, bit=3))
        assert 0 not in cache.entries

    def test_decode_tables_stay_within_their_bound(self, monkeypatch):
        """Every flipped program word decodes a new word.  The
        process-wide decode tables keep ``CODE_CACHE_LIMIT`` entries,
        the intern table dropping the one fetched longest ago, and what
        they hand out still decodes."""
        from repro.cpu import exec_core
        from repro.isa.encoding import decode

        monkeypatch.setattr(fastpath, "_INTERN", {})
        monkeypatch.setattr(exec_core, "_STATIC", {})
        monkeypatch.setattr(fastpath, "CODE_CACHE_LIMIT", 8)
        words = assemble("lex $0, 5\nlex $1, 7\nadd $0, $1\n"
                         "lex $rv, 0\nsys\n").words
        for addr in range(3):
            for bit in range(8):  # 24 distinct flipped words
                sim = FunctionalSimulator(ways=6,
                                          trap_policy=TrapPolicy.halting())
                sim.load(list(words))
                apply_event(sim.machine, FaultEvent(0, "mem", addr, 0, bit))
                sim.run(100)
                assert len(fastpath._INTERN) <= 8
                assert len(exec_core._STATIC) <= 8
                mem = sim.machine.mem
                for pc, entry in fastpath.cache_for(sim.machine) \
                        .entries.items():
                    assert entry.instr == decode(mem, pc)[0]
                    assert entry.static == exec_core.static_effects(
                        entry.instr)
        assert len(fastpath._INTERN) == len(exec_core._STATIC) == 8
        # Decoded first, but fetched by every run that kept it.
        assert words[0] in fastpath._INTERN
        sim = FunctionalSimulator(ways=6)
        sim.load(list(words))
        sim.run()
        assert sim.machine.read_reg(0) == 12


#: Thirty trips round one hot block.  With ten trips left a store
#: rewrites the block's first instruction, ``lex $3, 1``, with the
#: ``lex $3, 2`` at ``donor``: $5 = 20 * 1 + 10 * 2.
PATCH_LOOP = """\
        lex $7, 30
        lex $5, 0
        lex $13, -1
        lex $12, 10
        lex $10, donor
        load $11, $10
        lex $10, top
top:    lex $3, 1
        add $5, $3
        add $7, $13
        copy $8, $7
        xor $8, $12
        brt $8, skip
        store $11, $10
skip:   brt $7, top
        lex $rv, 0
        sys
donor:  lex $3, 2
"""
#: Steps of PATCH_LOOP up to the start of its fifteenth trip (seven
#: prologue instructions, seven per trip), past the heat threshold.
TRIP_15 = 7 + 14 * 7

#: Hot loops that trap part-way under one trap-policy knob each: a bf16
#: product overflowing to inf, a load and store walking into the fence,
#: and a ``meas`` channel walking past a 6-way register's 64 channels,
#: alone and among every other Qat readout and ``had``.
POLICY_LOOPS = {
    "trap_bf16": ("""\
        lex $7, 100
        lex $13, -1
        lex $2, 4
        float $2
        lex $4, 1
        float $4
top:    add $7, $13
        mulf $4, $2
        brt $7, top
        lex $rv, 0
        sys
""", dict(trap_bf16=True)),
    "mem_fence": ("""\
        lex $7, 40
        lex $13, -1
        lex $12, 4
        loadi $1, 0xC0
top:    add $7, $13
        load $2, $1
        store $7, $1
        add $1, $12
        brt $7, top
        lex $rv, 0
        sys
""", dict(mem_fence=0x100)),
    "strict_qat": ("""\
        had @0, 2
        lex $7, 40
        lex $13, -1
        lex $12, 4
        lex $1, 0
top:    add $7, $13
        copy $8, $1
        meas $8, @0
        add $5, $8
        add $1, $12
        brt $7, top
        lex $rv, 0
        sys
""", dict(strict_qat=True)),
    "strict_qat_readouts": ("""\
        had @0, 3
        lex $7, 20
        lex $13, -1
        lex $12, 4
        lex $1, 0
top:    add $7, $13
        had @1, 2
        copy $8, $1
        meas $8, @0
        copy $9, $1
        next $9, @1
        copy $10, $1
        pop $10, @0
        add $5, $8
        add $5, $9
        add $5, $10
        add $1, $12
        brt $7, top
        lex $rv, 0
        sys
""", dict(strict_qat=True)),
}
#: The Qat ops with a ``strict_qat`` trap.
STRICT_QAT_OPS = ("qhad", "qmeas", "qnext", "qpop")
#: ``pop`` after channel 0 of an all-ones 18-way register, in a hot
#: loop: 262,143 ones saturate the 16-bit destination.
SATURATING_POP = """\
        one @5
        lex $15, 3
        lex $13, -1
top:    lex $0, 0
        pop $0, @5
        add $15, $13
        brt $15, top
        lex $rv, 0
        sys
"""


def _inlined_runs_match_the_oracle(program, monkeypatch) -> None:
    """The lenient oracle, then every translated engine with the Qat
    ops' handlers refused: their blocks must hold those ops inline."""
    def refuse(*args):
        raise AssertionError("a translated block called a handler")

    expected = oracle(program, TrapPolicy())
    # Fresh intern and code tables, so every entry and block is built
    # against the refusing handlers.
    monkeypatch.setattr(fastpath, "_INTERN", {})
    monkeypatch.setattr(fastpath, "_CODE", {})
    for mnemonic in STRICT_QAT_OPS:
        monkeypatch.setitem(FAST_HANDLERS, mnemonic, refuse)
    for engine in ("functional.hot", "multicycle.hot", "batch.3lanes",
                   "pipelined.5fwd.hot", "pipelined.4nofwd.1port.hot"):
        for backend in BACKENDS:
            for got in run_engine(engine, program, backend, TrapPolicy()):
                got.pop("cycles", None)
                got.pop("timing", None)
                assert got == expected, f"{engine}/{backend}"


def _state(machine) -> tuple:
    return (tuple(int(r) for r in machine.regs), machine.pc, machine.instret,
            machine.halted, bytes(machine.mem),
            [t.as_dict() for t in machine.traps])


class TestTranslatedBlocks:
    def test_store_into_a_hot_block_runs_the_new_code_next_trip(self):
        program = assemble(PATCH_LOOP)
        top = program.labels["top"]
        sim = FunctionalSimulator(ways=6)
        sim.load(program)
        fastpath.run_functional(sim, TRIP_15)
        # The hot block at ``top`` holds the word the store will replace.
        _, _, records, _ = fastpath.cache_for(sim.machine).blocks[top]
        assert records[0] == (0, top, (program.words[top],))
        sim.run()
        assert sim.machine.read_reg(5) == 40
        check(Program.from_asm(PATCH_LOOP))

    def test_mem_fault_into_a_hot_block_between_lane_segments(self):
        """The flip lands in a translated block; the lane runs the
        flipped word, as a stepped run with the same fault does."""
        program = assemble(PATCH_LOOP)
        top = program.labels["top"]
        flip = FaultEvent(step=TRIP_15, target="mem", index=top, word=0,
                          bit=1)  # lex $3, 1 -> lex $3, 3
        batch = BatchFunctionalSimulator(1, ways=6)
        batch.load(program)
        batch.run(max_steps=TRIP_15)
        assert fastpath.cache_for(batch.lanes[0].machine).blocks[top]
        batch = BatchFunctionalSimulator(1, ways=6)
        batch.load(program)
        batch.run(max_steps=1000, plans=[FaultPlan(seed=0, events=(flip,))])
        stepped = FunctionalSimulator(ways=6)
        stepped.load(program)
        for step in range(1000):
            if step == flip.step:
                apply_event(stepped.machine, flip)
            if stepped.machine.halted:
                break
            stepped.step()
        assert stepped.machine.read_reg(5) != 40  # the flip was seen
        assert _state(batch.lanes[0].machine) == _state(stepped.machine)

    @pytest.mark.parametrize("policy", [TrapPolicy(), TrapPolicy.halting()],
                             ids=["raise", "halt"])
    def test_max_steps_inside_a_block_matches_the_observed_loop(self, policy):
        from repro.errors import TrapError

        program = assemble(PATCH_LOOP)
        for budget in range(TRIP_15, TRIP_15 + 15):  # every cut of two trips
            states = []
            for observed in (False, True):
                sim = FunctionalSimulator(ways=6, trap_policy=policy)
                sim.load(program)
                with obs.capture() if observed else every_leader_hot():
                    try:
                        sim.run(budget)
                    except TrapError as exc:
                        assert exc.record is sim.machine.traps[-1]
                states.append(_state(sim.machine))
            assert states[0] == states[1], budget
            assert states[0][2] == budget
            assert states[0][5][-1]["cause"] == "watchdog"

    @pytest.mark.parametrize("knob", POLICY_LOOPS)
    def test_hot_loop_traps_with_the_oracle_record(self, knob):
        source, knobs = POLICY_LOOPS[knob]
        policy = TrapPolicy.halting(**knobs)
        sims = [FunctionalSimulator(ways=6, trap_policy=policy)
                for _ in range(2)]
        for sim in sims:
            sim.load(assemble(source))
        sims[0].run()
        # The loop already ran translated blocks before the trap.
        fastpath.run_functional(sims[1], sims[0].machine.traps[0].instret)
        assert any(fastpath.cache_for(sims[1].machine).blocks.values())
        check(Program.from_asm(source, **knobs))

    def test_hot_qat_readouts_are_inlined(self, monkeypatch):
        """Lenient, a block holds ``had``, ``meas``, ``next`` and
        ``pop`` inline, and still matches the oracle."""
        source, _ = POLICY_LOOPS["strict_qat_readouts"]
        program = Program.from_asm(source)
        check(program)
        _inlined_runs_match_the_oracle(program, monkeypatch)

    def test_inlined_pop_saturates_and_traps_like_the_observed_step(
            self, monkeypatch):
        """An 18-way ``pop`` counting past 65,535 ones reads 0xFFFF
        inline, as the observed step does; under ``strict_qat`` every
        engine records the oracle's trap."""
        lenient = Program.from_asm(SATURATING_POP, ways=18)
        strict = Program.from_asm(SATURATING_POP, ways=18, strict_qat=True)
        assert oracle(lenient, TrapPolicy())["regs"][0] == 0xFFFF
        traps = oracle(strict, TrapPolicy.halting(strict_qat=True))["traps"]
        assert [t["detail"] for t in traps] == [
            "pop after channel 0 counted 262143 ones, exceeding the 16-bit "
            "destination"]
        check(strict)
        _inlined_runs_match_the_oracle(lenient, monkeypatch)

    def test_blocks_follow_a_change_of_policy_or_cycle_costs(self):
        from repro.cpu.multicycle import CycleCosts
        from repro.faults.traps import TrapCause

        source, knobs = POLICY_LOOPS["trap_bf16"]
        program = assemble(source)
        sim = FunctionalSimulator(ways=6)
        sim.load(program)
        fastpath.run_functional(sim, 60)  # translated under the lenient policy
        sim.machine.trap_policy = TrapPolicy.halting(**knobs)
        sim.run()
        assert [t.cause for t in sim.machine.traps] == [TrapCause.BF16_FAULT]
        cycles = []
        for stepped in (False, True):
            mc = MultiCycleSimulator(ways=6)
            mc.load(program)
            for _ in range(2):
                if stepped:
                    for _ in range(60):
                        mc.step()
                else:
                    fastpath.run_functional(mc, 60)
                mc.costs = CycleCosts(alu=5, fpu=7, branch=2)
            cycles.append(mc.cycles)
        assert cycles[0] == cycles[1]

    @pytest.mark.parametrize("knob", POLICY_LOOPS)
    def test_a_mutated_policy_gets_its_own_untranslatable_set(self, knob):
        """The set is memoized on the policy's fields, not on the
        policy: switching a knob on the same object between runs still
        keeps the instruction that now traps out of every block."""
        source, knobs = POLICY_LOOPS[knob]
        policy = TrapPolicy.halting()
        lenient = fastpath._untranslatable(policy)
        traps = []
        for strict in (False, True, False):
            for name, value in knobs.items():
                setattr(policy, name,
                        value if strict else getattr(TrapPolicy(), name))
            unsafe = fastpath._untranslatable(policy)
            assert (unsafe > lenient) if strict else (unsafe == lenient)
            assert unsafe == fastpath._untranslatable(
                TrapPolicy(**knobs) if strict else TrapPolicy())
            sim = FunctionalSimulator(ways=6, trap_policy=policy)
            sim.load(assemble(source))
            sim.run()
            traps.append(len(sim.machine.traps))
        assert traps == [0, 1, 0]

    def test_code_cache_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(fastpath, "_CODE", {})
        monkeypatch.setattr(fastpath, "CODE_CACHE_LIMIT", 4)
        with every_leader_hot():
            for k in range(12):
                sim = FunctionalSimulator(ways=6)
                sim.load(assemble(f"lex $0, {k}\nlex $1, 1\nbrt $1, out\n"
                                  "out: lex $rv, 0\nsys\n"))
                sim.run()
                assert sim.machine.read_reg(0) == k
                assert 0 < len(fastpath._CODE) <= 4

    def test_block_entered_after_a_stalled_branch(self):
        """A block whose entry fetch started two cycles before the last
        EX cycle, where its table clips the fetch term, is timed like the
        stepped loop."""
        check(Program.from_asm(STALLED_FALL_THROUGH))

    def test_one_closure_per_block_on_every_engine(self, monkeypatch):
        """The functional and the pipelined loop run each block as the
        same closure, and the pipeline's timing tables are shared: a
        second pipelined machine finds every entry state it meets."""
        monkeypatch.setattr(fastpath, "_CODE", {})
        program = assemble(HOT_LOOP.read_text())

        def table_entries():
            return sum(len(table) for *_, tables in fastpath._CODE.values()
                       for table in tables.values())

        with every_leader_hot():
            functional, pipelined, again = (
                FunctionalSimulator(), PipelinedSimulator(),
                PipelinedSimulator())
            for sim in (functional, pipelined):
                sim.load(program)
                sim.run()
            blocks = fastpath.cache_for(functional.machine).blocks
            timed = fastpath.cache_for(pipelined.machine).blocks
            assert sorted(blocks) == sorted(timed)
            assert any(blocks.values())
            for pc, block in blocks.items():
                assert (block and block[0]) is (timed[pc] and timed[pc][0]), pc
            entries = table_entries()
            assert entries > 0
            again.load(program)
            again.run()
        assert table_entries() == entries
        assert again.stats == pipelined.stats


class TestParallelCampaign:
    def test_jobs_report_byte_identical(self):
        from repro.faults.campaign import render_report, run_campaign

        serial = run_campaign(program="fig10", runs=8, seed=7, jobs=1)
        parallel = run_campaign(program="fig10", runs=8, seed=7, jobs=4)
        assert render_report(serial).encode() == render_report(parallel).encode()

    def test_bad_jobs_rejected(self):
        from repro.errors import ReproError
        from repro.faults.campaign import run_campaign

        with pytest.raises(ReproError):
            run_campaign(runs=2, jobs=0)


class TestBitvectorVectorized:
    @pytest.mark.parametrize("ways", [0, 3, 6, 10])
    def test_from_int_matches_meas_per_channel(self, ways):
        from repro.aob import AoB

        rng = np.random.default_rng(ways)
        value = int(rng.integers(0, 1 << min(60, 1 << ways))) if ways else 1
        vec = AoB.from_int(ways, value)
        for channel in range(1 << ways):
            assert vec.meas(channel) == (value >> channel) & 1

    @pytest.mark.parametrize("ways", [0, 3, 6, 10])
    def test_roundtrip_and_iteration(self, ways):
        from repro.aob import AoB

        rng = np.random.default_rng(100 + ways)
        vec = AoB.random(ways, rng)
        back = AoB.from_int(ways, vec.to_int())
        assert back == vec
        # iter_ones (the meas/next readout loop) agrees with the dense view
        assert list(vec.iter_ones()) == list(np.flatnonzero(vec.to_bool_array()))

    def test_rle_string_runs(self):
        from repro.aob import AoB

        vec = AoB.from_bits([0, 0, 1, 1, 1, 0, 1, 1])
        assert vec.to_rle_string() == "0^2 1^3 0 1^2"
        wide = AoB.from_bits([i % 2 for i in range(32)])
        assert wide.to_rle_string(max_runs=4).endswith("...")


class TestDispatchTable:
    def test_fast_handlers_cover_isa(self):
        from repro.cpu.exec_core import FAST_HANDLERS

        assert set(FAST_HANDLERS) == set(INSTRUCTIONS)
