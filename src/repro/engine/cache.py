"""The one caching rule behind every structure-keyed cache.

Four caches share it, each a :class:`VerifiedLRU`: the hom engine's
memo (:class:`HomCache`), the kernel's compiled targets
(:class:`~repro.kernel.compile.CompiledTargetCache`), a batch
session's query memo (:class:`~repro.kernel.batch.BatchSolveSession`)
and the serve warm-session table
(:class:`~repro.serve.service.DecisionService`, keyed by name).  The
reference solver keeps no cache: it builds its target index per
search.

* **Key by fingerprint, confirm by equality.**  Keys hold canonical
  structure fingerprints (plus the query kind and options), so a key is
  stable under re-listing a structure's facts in any order.  A
  fingerprint is a 64-bit tuple hash of a WL coloring, laid out as 32
  hex characters and the same in every process
  (:mod:`repro.engine.fingerprint`).  It is isomorphism-invariant but
  neither a complete isomorphism test nor collision-free, so it is an
  index only: each key holds a *bucket* of entries whose *witnesses*
  (the structures the key was computed from) are compared by ``==``
  before a hit is returned.  A collision costs a miss, never a wrong
  answer or a borrowed element table.
* **Bounded, least recently used out first.**  ``maxsize`` caps the
  number of keys and ``max_entries`` the entries across all buckets —
  the quantity that measures memory, since a collision grows a bucket
  without adding a key.  Both bounds evict whole keys, oldest use
  first; the entry count is kept incrementally, so ``len()`` is O(1).
  A bucket is capped only by ``max_entries``, so isomorphic but unequal
  structures used alternately both stay cached.
* **Invalidate by fingerprint.**  A secondary index maps every
  fingerprint-shaped key component to the keys mentioning it, so
  :meth:`VerifiedLRU.invalidate` drops exactly the entries involving
  one structure in O(matching keys).  The incremental engine's edit
  invalidation relies on it to evict only the side that changed.
  :meth:`VerifiedLRU.clear` empties everything.
* **One lock, own counters.**  Every operation runs under the cache's
  lock.  Hits, misses, evictions and invalidations are counted per
  cache; :meth:`VerifiedLRU.clear` keeps them and
  :meth:`VerifiedLRU.reset_counters` zeroes them.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from .fingerprint import HEX_LEN

# A bucket entry: (witnesses the key was computed from, cached value).
_Entry = Tuple[Tuple[Any, ...], Any]

#: Sentinel distinguishing "miss" from a cached ``None`` value.
MISS = object()


def _fingerprint_components(key: Hashable) -> Tuple[str, ...]:
    """The fingerprint-shaped components of a key (a bare fingerprint
    or the fingerprints inside a tuple) — what invalidation indexes."""
    parts = key if isinstance(key, tuple) else (key,)
    return tuple(c for c in parts if isinstance(c, str) and len(c) == HEX_LEN)


class VerifiedLRU:
    """A bounded, equality-verified, fingerprint-invalidated LRU cache.

    Parameters
    ----------
    maxsize:
        Maximum number of keys retained.  ``0`` disables storage (every
        lookup misses).
    max_entries:
        Maximum total entries across all buckets; defaults to
        ``2 * maxsize``.
    """

    def __init__(
        self,
        maxsize: int,
        max_entries: Optional[int] = None,
    ) -> None:
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        if max_entries is None:
            max_entries = 2 * maxsize
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.maxsize = maxsize
        self.max_entries = max_entries
        self._data: "OrderedDict[Hashable, List[_Entry]]" = OrderedDict()
        self._entries = 0
        self._by_fingerprint: Dict[str, Set[Hashable]] = {}
        self._lock = threading.Lock()
        self.reset_counters()

    def __len__(self) -> int:
        return self._entries

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction/invalidation counters (entries
        survive)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            self.invalidations = 0

    # ------------------------------------------------------------------
    def get(self, key: Hashable, witnesses: Tuple[Any, ...]) -> Any:
        """The value cached under ``key`` for ``witnesses``, or ``MISS``."""
        with self._lock:
            bucket = self._data.get(key)
            if bucket is not None:
                for stored, value in bucket:
                    if stored == witnesses:
                        self._data.move_to_end(key)
                        self.hits += 1
                        return value
            self.misses += 1
            return MISS

    def put(self, key: Hashable, witnesses: Tuple[Any, ...], value: Any) -> None:
        """Store ``value`` under ``key`` for ``witnesses``."""
        if self.maxsize == 0 or self.max_entries == 0:
            return
        with self._lock:
            bucket = self._data.get(key)
            if bucket is None:
                self._data[key] = [(witnesses, value)]
                self._entries += 1
                for fp in _fingerprint_components(key):
                    self._by_fingerprint.setdefault(fp, set()).add(key)
            else:
                for i, (stored, _) in enumerate(bucket):
                    if stored == witnesses:
                        bucket[i] = (witnesses, value)
                        break
                else:
                    self._entries += 1
                    bucket.append((witnesses, value))
                self._data.move_to_end(key)
            while self._data and (
                len(self._data) > self.maxsize
                or self._entries > self.max_entries
            ):
                self._drop(next(iter(self._data)))
                self.evictions += 1

    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry whose key mentions ``fingerprint``; returns
        the number of keys removed."""
        with self._lock:
            doomed = list(self._by_fingerprint.get(fingerprint, ()))
            for key in doomed:
                self._drop(key)
            self.invalidations += len(doomed)
            return len(doomed)

    def clear(self) -> None:
        """Empty the cache (counters are kept)."""
        with self._lock:
            self._data.clear()
            self._by_fingerprint.clear()
            self._entries = 0

    def _drop(self, key: Hashable) -> None:
        self._entries -= len(self._data.pop(key))
        for fp in _fingerprint_components(key):
            keys = self._by_fingerprint.get(fp)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_fingerprint[fp]


class HomCache(VerifiedLRU):
    """The hom engine's memo: hom and core answers keyed by
    ``(kind, fingerprint(s), options…)``.

    The memo is the only caller of :meth:`get` and :meth:`put` on this
    class, so patching them observes memo lookups alone.
    """

    def __init__(
        self, maxsize: int = 4096, max_entries: Optional[int] = None
    ) -> None:
        super().__init__(maxsize, max_entries)

    def snapshot(self) -> Dict[str, object]:
        """JSON-serializable cache statistics."""
        looked_up = self.hits + self.misses
        return {
            "maxsize": self.maxsize,
            "max_entries": self.max_entries,
            "entries": len(self),
            "keys": len(self._data),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hits / looked_up if looked_up else 0.0,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }
