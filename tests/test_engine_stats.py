"""Engine instrumentation and memo-cache behavior.

Includes the cache short-circuit regression test: the second identical
``exists_homomorphism`` query must perform *zero* backtracks (proved by
the solver counters, not by timing).
"""

import json

import pytest

from repro.engine import (
    HomCache,
    HomEngine,
    get_engine,
    reset_engine,
    set_engine,
)
from repro.homomorphism import is_homomorphism
from repro.structures import (
    directed_cycle,
    directed_path,
    undirected_cycle,
    undirected_path,
)


@pytest.fixture
def engine():
    return HomEngine()


class TestCacheShortCircuit:
    def test_second_identical_call_does_zero_backtracks(self, engine):
        # odd cycle -> K2 is the classic hard negative: the first solve
        # must backtrack, the cached second call must not search at all.
        source, target = undirected_cycle(7), undirected_path(2)
        assert engine.exists_homomorphism(source, target) is False
        after_first = engine.stats.backtracks
        nodes_after_first = engine.stats.nodes
        assert after_first > 0
        assert engine.exists_homomorphism(source, target) is False
        assert engine.stats.backtracks == after_first
        assert engine.stats.nodes == nodes_after_first
        assert engine.stats.cache_hits == 1
        assert engine.stats.solves == 1

    def test_positive_query_cached_witness_is_valid(self, engine):
        source, target = directed_path(4), directed_cycle(3)
        first = engine.find_homomorphism(source, target)
        cached = engine.find_homomorphism(source, target)
        assert engine.stats.cache_hits == 1
        assert cached == first
        assert is_homomorphism(source, target, cached)

    def test_cached_witness_is_a_defensive_copy(self, engine):
        source, target = directed_path(4), directed_cycle(3)
        witness = engine.find_homomorphism(source, target)
        witness.clear()  # caller mutates their copy
        again = engine.find_homomorphism(source, target)
        assert again and is_homomorphism(source, target, again)

    def test_no_cache_engine_always_solves(self):
        engine = HomEngine(cache_enabled=False)
        source, target = undirected_cycle(5), undirected_path(2)
        engine.exists_homomorphism(source, target)
        after_first = engine.stats.backtracks
        engine.exists_homomorphism(source, target)
        assert engine.stats.backtracks == 2 * after_first
        assert engine.stats.cache_hits == 0
        assert engine.stats.solves == 2

    def test_option_variants_do_not_collide(self, engine):
        c3 = directed_cycle(3)
        assert engine.find_homomorphism(c3, c3) is not None
        avoiding_all = engine.find_homomorphism(
            c3, c3, forbidden_images=frozenset(c3.universe)
        )
        assert avoiding_all is None
        injective = engine.find_homomorphism(c3, c3, injective=True)
        assert injective is not None
        pinned = engine.find_homomorphism(c3, c3, pinned={0: 1})
        assert pinned is not None and pinned[0] == 1


class TestCoreMemoization:
    def test_core_cached_by_fingerprint(self, engine):
        path = undirected_path(8)
        core = engine.core(path)
        assert core.size() == 2
        solves_after_first = engine.stats.solves
        assert engine.core(path).size() == 2
        assert engine.stats.solves == solves_after_first
        assert engine.stats.cache_hits >= 1

    def test_core_iterations_counted(self, engine):
        engine.core(undirected_path(6))
        assert engine.stats.core_iterations >= 1


class TestInvalidation:
    def test_invalidate_forces_resolve(self, engine):
        source, target = undirected_cycle(5), undirected_path(2)
        engine.exists_homomorphism(source, target)
        removed = engine.invalidate(source)
        assert removed == 1
        backtracks = engine.stats.backtracks
        engine.exists_homomorphism(source, target)
        assert engine.stats.backtracks > backtracks
        assert engine.cache.invalidations == 1

    def test_clear_cache(self, engine):
        engine.exists_homomorphism(directed_path(3), directed_cycle(3))
        assert len(engine.cache) == 1
        engine.clear_cache()
        assert len(engine.cache) == 0

    def test_lru_eviction(self):
        engine = HomEngine()
        engine.cache = HomCache(1)
        engine.exists_homomorphism(directed_path(2), directed_cycle(3))
        engine.exists_homomorphism(directed_path(3), directed_cycle(3))
        assert engine.cache.evictions == 1
        assert len(engine.cache) == 1


class TestSnapshotAndGlobalEngine:
    def test_snapshot_is_json_serializable(self, engine):
        engine.exists_homomorphism(directed_path(3), directed_cycle(3))
        snap = json.loads(json.dumps(engine.snapshot()))
        assert snap["cache_enabled"] is True
        for field in ("calls", "backtracks", "nodes", "ac3_prunings",
                      "cache_hits", "cache_misses", "hit_rate",
                      "solve_time_s"):
            assert field in snap["solver"]
        for field in ("hits", "misses", "hit_rate", "entries", "maxsize"):
            assert field in snap["cache"]

    def test_reset_stats(self, engine):
        engine.exists_homomorphism(directed_path(3), directed_cycle(3))
        engine.reset_stats()
        assert engine.stats.calls == 0
        assert engine.cache.snapshot()["hits"] == 0

    def test_reset_stats_zeroes_compiled_cache_counters(self, engine):
        # regression: the compiled-target LRU's hit/miss counters must
        # reset with the rest of the stats (and with the governor), not
        # leak across `repro stats --reset` baselines
        engine.exists_homomorphism(directed_path(3), directed_cycle(3))
        engine.exists_homomorphism(directed_path(4), directed_cycle(3))
        compiled = engine.compiled_targets.snapshot()
        assert compiled["hits"] + compiled["misses"] > 0
        entries_before = compiled["entries"]
        engine.reset_stats()
        compiled = engine.compiled_targets.snapshot()
        assert compiled["hits"] == 0 and compiled["misses"] == 0
        # the compiled targets themselves stay warm — only counters reset
        assert compiled["entries"] == entries_before
        assert engine.stats.kernel_compilations == 0
        assert engine.stats.kernel_compile_hits == 0
        from repro.engine.instrumentation import GOVERNOR

        assert GOVERNOR.snapshot()["unknown_verdicts"] == 0

    def test_reset_stats_zeroes_v2_counters(self, engine):
        import repro.structures as st

        handle = engine.batch(directed_cycle(3))
        for source in (st.directed_path(2), st.directed_path(3)):
            handle.find(source)
        engine.exists_homomorphism(
            st.undirected_cycle(16), st.undirected_path(2)
        )
        assert engine.stats.batch_calls == 1
        assert engine.stats.batch_queries == 2
        assert engine.stats.dp_solves == 1
        engine.reset_stats()
        snap = engine.stats.snapshot()
        for field in ("batch_calls", "batch_queries", "batch_dedup_hits",
                      "dp_solves", "dp_bags", "dp_entries"):
            assert snap[field] == 0

    def test_set_and_reset_global_engine(self):
        original = get_engine()
        try:
            mine = HomEngine()
            mine.cache = HomCache(7)
            assert set_engine(mine) is mine
            assert get_engine() is mine
            fresh = reset_engine()
            assert get_engine() is fresh is not mine
        finally:
            set_engine(original)
