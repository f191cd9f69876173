"""Fast-path execution engine: equivalence, invalidation, and fan-out.

The contract of :mod:`repro.cpu.fastpath` is *architectural
invisibility*: the stripped loop must be byte-identical to the
observed loop in every observable (registers, memory, Qat state, trap
records, cycle counts), the predecode cache must survive
self-modifying code, and the ``--jobs`` fan-out of campaigns must
merge back to the serial report exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.cpu import (
    FunctionalSimulator,
    MultiCycleSimulator,
    PipelinedSimulator,
    fastpath,
)
from repro.faults.traps import TrapPolicy
from repro.isa import INSTRUCTIONS

from tests.test_pipeline import random_program

SIMS = [FunctionalSimulator, MultiCycleSimulator, PipelinedSimulator]
BACKENDS = ["dense", "re"]


def _snap(sim) -> dict:
    snap = sim.machine.snapshot()
    # Backend-agnostic Qat readout (the RE backend has no dense matrix).
    snap["qregs"] = [sim.machine.read_qreg(i) for i in range(256)]
    snap["traps"] = [record.as_dict() for record in sim.machine.traps]
    snap["instret"] = sim.machine.instret
    return snap


def _assert_same_state(a: dict, b: dict) -> None:
    assert np.array_equal(a["regs"], b["regs"])
    assert np.array_equal(a["mem"], b["mem"])
    assert a["pc"] == b["pc"]
    assert a["halted"] == b["halted"]
    assert a["output"] == b["output"]
    assert a["instret"] == b["instret"]
    assert a["traps"] == b["traps"]
    assert a["qregs"] == b["qregs"]


def _run_both(sim_cls, words, *, ways=6, qat_backend="dense",
              trap_policy=None, max_steps=5000):
    """Run ``words`` down the slow and fast paths; return both sims."""
    out = []
    for fast in (False, True):
        sim = sim_cls(ways=ways, trap_policy=trap_policy,
                      qat_backend=qat_backend)
        sim.use_fastpath = fast
        sim.load(list(words))
        if sim_cls is PipelinedSimulator:
            # The pipeline has no separate stripped loop; exercise the
            # predecode cache against uncached decoding instead.
            sim.machine.predecode_enabled = fast
            sim.run(max_cycles=max_steps * 10)
        else:
            sim.run(max_steps=max_steps)
        out.append(sim)
    return out


class TestDifferentialFastVsSlow:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sim_cls", SIMS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_random_programs_identical(self, sim_cls, backend, data):
        words = random_program(data)
        slow, fast = _run_both(sim_cls, words, qat_backend=backend)
        _assert_same_state(_snap(slow), _snap(fast))

    @pytest.mark.parametrize("sim_cls", [FunctionalSimulator,
                                         MultiCycleSimulator])
    def test_return_value_matches(self, sim_cls):
        words = assemble("lex $0, 7\nadd $0, $0\nlex $rv, 0\nsys\n").words
        slow, fast = _run_both(sim_cls, words)
        if sim_cls is MultiCycleSimulator:
            assert slow.cycles == fast.cycles > 0
        assert slow.machine.read_reg(0) == fast.machine.read_reg(0) == 14

    @pytest.mark.parametrize("sim_cls", [FunctionalSimulator,
                                         MultiCycleSimulator])
    def test_trap_records_identical_under_halt_policy(self, sim_cls):
        # Illegal opcode mid-stream: the trap record (cause, pc,
        # instret, cycle, detail) must match the slow path exactly.
        words = assemble("lex $0, 1\nlex $1, 2\n").words + [0x6000]
        slow, fast = _run_both(sim_cls, words,
                               trap_policy=TrapPolicy.halting())
        snap_slow, snap_fast = _snap(slow), _snap(fast)
        assert snap_slow["traps"], "expected an illegal-opcode trap"
        _assert_same_state(snap_slow, snap_fast)

    @pytest.mark.parametrize("sim_cls", [FunctionalSimulator,
                                         MultiCycleSimulator])
    def test_watchdog_identical_under_halt_policy(self, sim_cls):
        words = assemble("spin: br spin\n").words
        slow, fast = _run_both(sim_cls, words, max_steps=64,
                               trap_policy=TrapPolicy.halting())
        snap_slow, snap_fast = _snap(slow), _snap(fast)
        assert snap_slow["traps"][0]["cause"] == "watchdog"
        _assert_same_state(snap_slow, snap_fast)

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
        src = """
            lex $0, 0
            lex $1, 0
            store $0, $1
            lex $3, 9
            lex $rv, 0
            sys
        """
        program = assemble(src)
        results = []
        for predecode in (True, False):
            sim = FunctionalSimulator(ways=6)
            sim.load(program)
            sim.machine.predecode_enabled = predecode
            sim.run(max_steps=100)
            results.append(_snap(sim))
        _assert_same_state(results[0], results[1])
        assert results[0]["regs"][3] == 9

    @pytest.mark.parametrize("sim_cls", SIMS)
    def test_self_modifying_program(self, sim_cls):
        """A program that rewrites an upcoming instruction word.

        The store overwrites the word at ``target`` (originally
        ``lex $3, 2``) with the encoding of ``lex $3, 42`` well before
        fetch reaches it; differentially compare a predecoding
        simulator against one decoding every fetch.
        """
        from repro.isa import Instr, encode

        (word,) = encode(Instr("lex", (3, 42)))
        filler = "\n".join("lex $4, 0" for _ in range(8))
        src = f"""
            lex $0, {word & 0xFF}
            lhi $0, {(word >> 8) & 0xFF}
            lex $1, target
            store $0, $1
        {filler}
        target:
            lex $3, 2
            lex $rv, 0
            sys
        """
        program = assemble(src)

        results = []
        for predecode in (True, False):
            sim = sim_cls(ways=6)
            sim.load(program)
            sim.machine.predecode_enabled = predecode
            if sim_cls is PipelinedSimulator:
                sim.run(max_cycles=500)
            else:
                sim.run(max_steps=200)
            results.append(_snap(sim))
        _assert_same_state(results[0], results[1])
        # Both actually executed the patched instruction.
        assert results[0]["regs"][3] == 42

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

    def test_disabled_machine_has_no_cache(self):
        sim = FunctionalSimulator(ways=6)
        sim.machine.predecode_enabled = False
        assert fastpath.cache_for(sim.machine) is None


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


class TestChunkStoreMemoBound:
    def test_eviction_counts_and_caps(self):
        from repro.aob import AoB
        from repro.pattern.chunkstore import ChunkStore

        store = ChunkStore(4, memo_limit=4)
        rng = np.random.default_rng(1)
        syms = [store.intern(AoB.random(4, rng)) for _ in range(10)]
        for i in range(9):
            store.binop("xor", syms[i], syms[i + 1])
        assert len(store._binop_cache) <= 4
        assert store.memo_evicted == store.stats()["memo_evicted"] > 0
        assert store.stats()["memo_limit"] == 4

    def test_lru_refresh_on_hit(self):
        from repro.aob import AoB
        from repro.pattern.chunkstore import ChunkStore

        store = ChunkStore(4, memo_limit=2)
        rng = np.random.default_rng(2)
        a, b, c, d = (store.intern(AoB.random(4, rng)) for _ in range(4))
        store.binop("xor", a, b)
        store.binop("xor", a, c)
        store.binop("xor", a, b)  # hit: refresh recency
        store.binop("xor", a, d)  # evicts (a, c), not the refreshed (a, b)
        hits = store.gate_hits
        store.binop("xor", a, b)
        assert store.gate_hits == hits + 1  # still memoized

    def test_results_correct_under_eviction(self):
        from repro.aob import AoB
        from repro.pattern.chunkstore import ChunkStore

        store = ChunkStore(3, memo_limit=1)
        rng = np.random.default_rng(3)
        chunks = [AoB.random(3, rng) for _ in range(6)]
        syms = [store.intern(c) for c in chunks]
        for i in range(5):
            got = store.chunk(store.binop("and", syms[i], syms[i + 1]))
            assert got == (chunks[i] & chunks[i + 1])
            assert store.chunk(store.bnot(syms[i])) == ~chunks[i]

    def test_bad_limit_rejected(self):
        from repro.errors import EntanglementError
        from repro.pattern.chunkstore import ChunkStore

        with pytest.raises(EntanglementError):
            ChunkStore(4, memo_limit=0)


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
