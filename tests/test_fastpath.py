"""Fast-path execution engine: loop selection, invalidation, and fan-out.

The contract of :mod:`repro.cpu.fastpath` is *architectural
invisibility*: the stripped loop must match the observed loop in every
observable (``tests/test_conformance.py`` checks that on random
programs), the predecode cache must survive self-modifying code, and
the ``--jobs`` fan-out of campaigns must merge back to the serial
report exactly.
"""

import numpy as np
import pytest

from repro.asm import assemble
from repro.cpu import (
    FunctionalSimulator,
    MultiCycleSimulator,
    PipelinedSimulator,
    fastpath,
)
from repro.isa import INSTRUCTIONS

from tests.conformance import STORE_AT_ZERO, store_ahead

SIMS = [FunctionalSimulator, MultiCycleSimulator, PipelinedSimulator]


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
