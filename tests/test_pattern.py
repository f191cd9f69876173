"""Pattern (RE-compressed) substrate tests against dense expansion."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.aob import AoB
from repro.errors import EntanglementError
from repro.pattern import ChunkStore, PatternVector


@pytest.fixture
def store():
    return ChunkStore(6)  # 64-bit chunks keep dense comparison cheap


def random_vector(store, ways, rng):
    a = AoB.random(ways, rng)
    return PatternVector.from_aob(a, store=store), a


class TestChunkStore:
    def test_constants_preinterned(self, store):
        assert store.chunk(store.zero_id) == AoB.zeros(6)
        assert store.chunk(store.one_id) == AoB.ones(6)

    def test_interning_dedupes(self, store):
        a = store.intern(AoB.hadamard(6, 2))
        b = store.intern(AoB.hadamard(6, 2))
        assert a == b

    def test_binop_reuses_known_results(self, store):
        h = store.hadamard(1)
        assert store.binop("and", h, store.one_id) == h
        r1 = store.binop("xor", h, store.one_id)
        r2 = store.binop("xor", store.one_id, h)
        assert r1 == r2

    def test_gate_hits_count_run_extensions(self, store):
        """A gate result equal to the run before it extends that run (a
        hit); any other result begins a new run (a miss)."""
        h = PatternVector.hadamard(8, 7, store)  # two runs: zeros, ones
        ones = PatternVector.ones(8, store)
        assert (h & ones).num_runs == 2
        assert store.stats() == {"symbols": 2, "gate_hits": 0,
                                 "gate_misses": 2}
        assert (h | ones).num_runs == 1  # the second result extends
        assert (store.gate_hits, store.gate_misses) == (1, 3)
        assert (~h).num_runs == 2
        assert (store.gate_hits, store.gate_misses) == (1, 5)

    def test_store_keeps_no_chunk_alive(self):
        """Memory follows the live values: gate results nobody holds are
        freed, so a long run of gates does not grow the store."""
        import gc
        import tracemalloc

        store = ChunkStore(10)  # 1,024-bit chunks
        a = store.hadamard(3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(1000):  # a distinct, discarded result each time
                b = store.intern(AoB(10, i))
                store.bnot(store.binop("xor", a, b))
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # Keeping the 2,000 distinct 1,024-bit results would take over
        # 250 KiB.
        assert grown < 16 * 1024

    def test_binop_commutative_cache(self, store):
        a, b = store.hadamard(0), store.hadamard(3)
        assert store.binop("and", a, b) == store.binop("and", b, a)

    def test_bnot_involution(self, store):
        h = store.hadamard(2)
        assert store.bnot(store.bnot(h)) == h

    def test_first_one(self, store):
        assert store.first_one(store.zero_id) == -1
        assert store.first_one(store.one_id) == 0
        assert store.first_one(store.hadamard(3)) == 8

    def test_popcount(self, store):
        assert store.popcount(store.zero_id) == 0
        assert store.popcount(store.hadamard(0)) == 32

    def test_rejects_wrong_ways(self, store):
        with pytest.raises(EntanglementError):
            store.intern(AoB.zeros(5))

    def test_rejects_unknown_op(self, store):
        with pytest.raises(ValueError):
            store.binop("nand", store.zero_id, store.one_id)

    def test_rejects_chunks_wider_than_an_aob(self):
        # Checked before the all-ones mask (a 2**chunk_bits int) is built.
        with pytest.raises(EntanglementError):
            ChunkStore(40)
        with pytest.raises(EntanglementError):
            ChunkStore(-1)

    def test_rejected_op_counts_nothing(self, store):
        from repro import obs

        before = store.stats()
        with obs.capture(tracing=False) as telemetry:
            with pytest.raises(ValueError):
                store.binop("nand", store.one_id, store.zero_id)
        assert store.stats() == before
        assert telemetry.metrics.names() == []

    def test_gate_values_match_dense_chunks(self):
        store = ChunkStore(3)
        rng = np.random.default_rng(3)
        chunks = [AoB.random(3, rng) for _ in range(6)]
        syms = [store.intern(c) for c in chunks]
        for i in range(5):
            got = store.chunk(store.binop("and", syms[i], syms[i + 1]))
            assert got == (chunks[i] & chunks[i + 1])
            assert store.chunk(store.bnot(syms[i])) == ~chunks[i]


class TestPatternConstruction:
    def test_zeros_one_run(self, store):
        v = PatternVector.zeros(10, store)
        assert v.num_runs == 1
        assert not v.any()

    def test_ones_one_run(self, store):
        v = PatternVector.ones(10, store)
        assert v.num_runs == 1
        assert v.all()

    def test_hadamard_low_k_one_run(self, store):
        v = PatternVector.hadamard(12, 3, store)
        assert v.num_runs == 1
        assert v.to_aob() == AoB.hadamard(12, 3)

    def test_hadamard_high_k_two_run_alternation(self, store):
        v = PatternVector.hadamard(12, 11, store)
        assert v.num_runs == 2  # zeros then ones: maximal compression
        assert v.to_aob() == AoB.hadamard(12, 11)

    def test_hadamard_compression_independent_of_ways(self, store):
        """The exponential-compression claim of section 1.2."""
        for ways in (8, 12, 16, 20):
            v = PatternVector.hadamard(ways, ways - 1, store)
            assert v.num_runs == 2
            assert v.compression_ratio() == (1 << (ways - 6)) / 2

    def test_from_aob_roundtrip(self, store, rng):
        a = AoB.random(9, rng)
        assert PatternVector.from_aob(a, store=store).to_aob() == a

    def test_from_aob_zero_extension(self, store):
        a = AoB.ones(6)
        v = PatternVector.from_aob(a, ways=8, store=store)
        assert v.popcount() == 64
        assert v.nbits == 256

    def test_rejects_ways_below_chunk(self, store):
        with pytest.raises(EntanglementError):
            PatternVector.zeros(5, store)

    def test_rejects_bad_run_total(self, store):
        with pytest.raises(EntanglementError):
            PatternVector(8, ((store.zero_id, 3),), store)

    def test_rejects_narrow_chunks(self):
        with pytest.raises(EntanglementError):
            PatternVector(8, ((0, 1),), ChunkStore(3))


class TestPatternOps:
    @given(st.data())
    def test_binary_ops_match_dense(self, data):
        import numpy as np

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store = ChunkStore(6)
        ways = data.draw(st.integers(min_value=6, max_value=9))
        va, a = random_vector(store, ways, rng)
        vb, b = random_vector(store, ways, rng)
        assert (va & vb).to_aob() == (a & b)
        assert (va | vb).to_aob() == (a | b)
        assert (va ^ vb).to_aob() == (a ^ b)
        assert (~va).to_aob() == ~a

    @given(st.data())
    def test_measurement_matches_dense(self, data):
        import numpy as np

        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        store = ChunkStore(6)
        ways = data.draw(st.integers(min_value=6, max_value=9))
        v, a = random_vector(store, ways, rng)
        assert v.popcount() == a.popcount()
        assert v.any() == a.any()
        assert v.all() == a.all()
        for channel in data.draw(
            st.lists(st.integers(0, (1 << ways) - 1), min_size=1, max_size=8)
        ):
            assert v.meas(channel) == a.meas(channel)
            assert v.next(channel) == a.next(channel)
            assert v.pop_after(channel) == a.pop_after(channel)

    def test_iter_ones_matches_dense(self, store, rng):
        v, a = random_vector(store, 8, rng)
        assert list(v.iter_ones()) == list(a.iter_ones())

    def test_cnot_ccnot_cswap(self, store, rng):
        va, a = random_vector(store, 7, rng)
        vb, b = random_vector(store, 7, rng)
        vc, c = random_vector(store, 7, rng)
        assert va.cnot(vb).to_aob() == a.cnot(b)
        assert va.ccnot(vb, vc).to_aob() == a.ccnot(b, c)
        x, y = va.cswap(vb, vc)
        ax, ay = a.cswap(b, c)
        assert x.to_aob() == ax and y.to_aob() == ay

    def test_ops_preserve_normal_form(self, store):
        """Adjacent equal runs coalesce, so equal values compare equal."""
        h = PatternVector.hadamard(10, 9, store)
        v = (h ^ h) | PatternVector.zeros(10, store)
        assert v == PatternVector.zeros(10, store)
        assert v.num_runs == 1

    def test_mismatched_store_rejected(self, store, rng):
        other = ChunkStore(6)
        va, _ = random_vector(store, 8, rng)
        vb, _ = random_vector(other, 8, rng)
        with pytest.raises(EntanglementError):
            va & vb

    def test_mismatched_ways_rejected(self, store):
        with pytest.raises(EntanglementError):
            PatternVector.zeros(8, store) & PatternVector.zeros(9, store)

    def test_equality_across_stores_is_structural(self):
        s1, s2 = ChunkStore(6), ChunkStore(6)
        assert PatternVector.hadamard(9, 4, s1) == PatternVector.hadamard(9, 4, s2)

    def test_symbolic_sharing(self, store):
        """Gate work scales with runs, not bits: a 2^20-bit op touches
        the store once per distinct chunk pair."""
        h = PatternVector.hadamard(20, 19, store)
        ones = PatternVector.ones(20, store)
        before = store.gate_hits + store.gate_misses
        result = h ^ ones
        assert result.popcount() == 1 << 19
        assert store.gate_hits + store.gate_misses - before <= 2

    def test_getitem_and_len(self, store):
        v = PatternVector.hadamard(8, 7, store)
        assert len(v) == 256
        assert v[0] == 0 and v[255] == 1

    def test_repr_shows_runs(self, store):
        assert "runs=" in repr(PatternVector.zeros(8, store))
