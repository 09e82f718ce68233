"""The caching contract, checked on every structure-keyed cache.

The hom memo, the compiled-target cache and a batch session's query
memo all run on :class:`repro.engine.cache.VerifiedLRU`.  Each test
drives every one of them through its own lookup path and checks one
clause of the rule in :mod:`repro.engine.cache`: an
isomorphic-but-unequal structure never gets another structure's hit,
the key and entry bounds hold,
``invalidate(fp)`` drops only the entries that mention ``fp``,
``clear()`` keeps the counters, and isomorphic-but-unequal structures
used alternately both stay cached.  A threaded stress test checks the
cache's lock.
"""

import random
import sys
import threading

import pytest

import repro.kernel.batch as batch
from repro.engine.cache import MISS, HomCache, VerifiedLRU
from repro.engine.engine import HomEngine
from repro.kernel.batch import BatchSolveSession
from repro.kernel.compile import CompiledTargetCache
from repro.structures import GRAPH_VOCABULARY, Structure, directed_cycle

#: The fixed target of the memo and batch lookups (every path maps in).
TARGET = directed_cycle(3)


def path(n, offset=0):
    """A directed path on ``offset .. offset + n - 1``; paths of one
    length share a fingerprint whatever their offset."""
    return Structure(
        GRAPH_VOCABULARY,
        range(offset, offset + n),
        {"E": [(offset + i, offset + i + 1) for i in range(n - 1)]},
    )


def _memo(maxsize, monkeypatch):
    engine = HomEngine()
    engine.cache = HomCache(maxsize)
    return (engine.cache,
            lambda s: engine.find_homomorphism(s, TARGET), set)


def _compiled_targets(maxsize, monkeypatch):
    cache = CompiledTargetCache(maxsize)
    return cache, cache.get, lambda compiled: set(compiled.elements)


def _batch_memo(maxsize, monkeypatch):
    monkeypatch.setattr(batch, "SESSION_MEMO_SIZE", maxsize)
    session = BatchSolveSession(TARGET)
    return session._memo, session.solve, set


#: name -> build(maxsize, monkeypatch) -> (cache, lookup, universe_of):
#: ``lookup(structure)`` runs the user's own cached path and
#: ``universe_of(value)`` names the structure a returned value was
#: computed for.
USERS = {
    "memo": _memo,
    "compiled-targets": _compiled_targets,
    "batch-memo": _batch_memo,
}


@pytest.fixture(params=sorted(USERS))
def user(request, monkeypatch):
    return lambda maxsize: USERS[request.param](maxsize, monkeypatch)


def _key_count(cache):
    return len(cache._data)


def _counters(cache):
    return (cache.hits, cache.misses, cache.evictions, cache.invalidations)


def test_isomorphic_copy_never_borrows_a_hit(user):
    cache, lookup, universe_of = user(8)
    a, b = path(3), path(3, offset=10)
    assert a.fingerprint() == b.fingerprint() and a != b
    assert universe_of(lookup(a)) == a.universe_set
    hits = cache.hits
    # same key, unequal structure: a miss, answered for b itself
    assert universe_of(lookup(b)) == b.universe_set
    assert cache.hits == hits
    # one bucket holds both, and each structure is served only its own
    # value
    assert len(cache) == 2 and _key_count(cache) == 1
    assert universe_of(lookup(a)) == a.universe_set
    assert universe_of(lookup(b)) == b.universe_set
    assert cache.hits == hits + 2
    assert len(cache) == 2


def test_isomorphic_copies_used_alternately_both_stay_cached(user):
    cache, lookup, _ = user(8)
    a, b = path(3), path(3, offset=10)
    for s in (a, b) * 3:
        lookup(s)
    assert (cache.misses, cache.hits) == (2, 4)


def test_key_and_entry_bounds_hold(user):
    cache, lookup, _ = user(4)
    for n in range(1, 13):                     # distinct keys
        lookup(path(n))
        assert _key_count(cache) <= cache.maxsize
        assert len(cache) <= cache.max_entries
    assert cache.evictions > 0
    for offset in range(0, 100, 10):           # one key, a growing bucket
        lookup(path(3, offset))
        assert len(cache) <= cache.max_entries
        largest = max(map(len, cache._data.values()), default=0)
        assert largest <= cache.max_entries


def test_zero_bound_stores_nothing(user):
    cache, lookup, _ = user(0)
    lookup(path(3))
    lookup(path(3))
    assert cache.hits == 0 and len(cache) == 0


def test_invalidate_drops_only_entries_mentioning_the_fingerprint(user):
    cache, lookup, _ = user(8)
    a, b, c = path(2), path(3), path(4)
    for s in (a, b, c):
        lookup(s)
    assert cache.invalidate(b.fingerprint()) == 1
    assert cache.invalidations == 1
    hits = cache.hits
    lookup(a)
    lookup(c)
    assert cache.hits == hits + 2
    lookup(b)
    assert cache.hits == hits + 2


def test_clear_keeps_counters_and_reset_zeroes_them(user):
    cache, lookup, _ = user(8)
    lookup(path(3))
    lookup(path(3))
    lookup(path(4))
    before = _counters(cache)
    assert before[:2] == (1, 2)
    cache.clear()
    assert len(cache) == 0 and _counters(cache) == before
    lookup(path(3))
    assert cache.misses == 3
    cache.reset_counters()
    assert _counters(cache) == (0, 0, 0, 0) and len(cache) == 1


def test_concurrent_use_loses_no_update():
    """Threads sharing one cache (the serve fallback engine shares the
    memo) keep every counter and the invalidation index exact."""
    cache = VerifiedLRU(4)
    threads, rounds = 8, 2000

    def worker(seed):
        rng = random.Random(seed)
        # equal but not identical across threads, so every hit runs
        # Structure.__eq__, where a thread switch can fall
        structures = [path(n) for n in range(1, 9)]
        for _ in range(rounds):
            s = rng.choice(structures)
            key = s.fingerprint()
            if cache.get(key, (s,)) is MISS:
                cache.put(key, (s,), s.size())
            if rng.random() < 0.05:
                cache.invalidate(key)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pool = [threading.Thread(target=worker, args=(i,))
                for i in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert cache.hits + cache.misses == threads * rounds
    assert cache.evictions > 0 and cache.invalidations > 0
    assert len(cache) == sum(map(len, cache._data.values()))
    assert _key_count(cache) <= cache.maxsize
    indexed = set().union(*cache._by_fingerprint.values())
    assert indexed == set(cache._data)
