"""LRU memo cache for homomorphism and core queries.

Entries are keyed by canonical structure fingerprints (plus the query
kind and options), so the key is stable under re-listing a structure's
facts in any order.  A fingerprint is a 64-bit tuple hash of a WL
coloring, laid out as 32 hex characters and the same in every process
(:mod:`repro.engine.fingerprint`).  It is isomorphism-invariant but
neither a complete isomorphism test nor collision-free, so it is an
index only: each key holds a *bucket* of entries whose structures are
compared by ``==`` before a hit is returned, and a fingerprint
collision degrades to a miss, never to a wrong answer.

The cache is bounded two ways: ``maxsize`` caps the number of *keys*
(the classic LRU bound) and ``max_entries`` caps the total number of
*entries* across all buckets — the quantity that actually measures
memory, since a fingerprint collision grows a bucket without adding a
key.  Both bounds evict least-recently-used keys; the entry count is
maintained incrementally so ``len(cache)`` is O(1).

Invalidation is explicit and fingerprint-indexed:
:meth:`HomCache.invalidate` drops every entry whose key involves a
given structure's fingerprint in O(matching keys) — a secondary index
maps each fingerprint component to the keys mentioning it, which is
what lets the incremental engine's edit invalidation evict only the
entries whose side actually changed instead of scanning (or clearing)
the whole cache.  :meth:`HomCache.clear` still empties everything.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from .fingerprint import HEX_LEN

# A bucket entry: (structures the key was computed from, cached payload).
_Entry = Tuple[Tuple[Any, ...], Any]

#: Sentinel distinguishing "miss" from a cached ``None`` payload.
MISS = object()

#: Hex length of a fingerprint component inside a cache key.
_FP_HEX_LEN = HEX_LEN


def _fingerprint_components(key: Hashable) -> Tuple[str, ...]:
    """The fingerprint-shaped components of a cache key (what the
    secondary invalidation index is keyed by)."""
    if not isinstance(key, tuple):
        return ()
    return tuple(
        c for c in key if isinstance(c, str) and len(c) == _FP_HEX_LEN
    )


class HomCache:
    """A bounded LRU cache keyed by fingerprint tuples.

    Parameters
    ----------
    maxsize:
        Maximum number of keys retained (least-recently-used eviction).
        ``0`` disables storage (every lookup misses).
    max_entries:
        Maximum total entries across all buckets; defaults to
        ``2 * maxsize`` (so collision buckets cannot grow the cache
        unboundedly even when the key count is under ``maxsize``).
    """

    def __init__(
        self, maxsize: int = 4096, max_entries: Optional[int] = None
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
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return self._entries

    # ------------------------------------------------------------------
    def get(self, key: Hashable, witnesses: Tuple[Any, ...]) -> Any:
        """The payload cached under ``key`` for ``witnesses``, or ``MISS``.

        ``witnesses`` are the structures the key's fingerprints were
        computed from; the stored entry must match them by equality.
        """
        bucket = self._data.get(key)
        if bucket is not None:
            for stored, payload in bucket:
                if stored == witnesses:
                    self._data.move_to_end(key)
                    self.hits += 1
                    return payload
        self.misses += 1
        return MISS

    def put(self, key: Hashable, witnesses: Tuple[Any, ...], payload: Any) -> None:
        """Store ``payload`` under ``key`` for ``witnesses``."""
        if self.maxsize == 0 or self.max_entries == 0:
            return
        bucket = self._data.get(key)
        if bucket is None:
            self._data[key] = [(witnesses, payload)]
            self._entries += 1
            for fp in _fingerprint_components(key):
                self._by_fingerprint.setdefault(fp, set()).add(key)
        else:
            for i, (stored, _) in enumerate(bucket):
                if stored == witnesses:
                    bucket[i] = (witnesses, payload)
                    break
            else:
                bucket.append((witnesses, payload))
                self._entries += 1
            self._data.move_to_end(key)
        while self._data and (
            len(self._data) > self.maxsize or self._entries > self.max_entries
        ):
            self._evict_lru()

    def _evict_lru(self) -> None:
        key, bucket = self._data.popitem(last=False)
        self._entries -= len(bucket)
        self._unindex(key)
        self.evictions += 1

    def _unindex(self, key: Hashable) -> None:
        for fp in _fingerprint_components(key):
            keys = self._by_fingerprint.get(fp)
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._by_fingerprint[fp]

    # ------------------------------------------------------------------
    def invalidate(self, fingerprint: str) -> int:
        """Drop every entry whose key mentions ``fingerprint``.

        O(matching keys) via the secondary fingerprint index (not a
        scan of the whole cache); returns the number of keys removed.
        """
        doomed = list(self._by_fingerprint.get(fingerprint, ()))
        for key in doomed:
            bucket = self._data.pop(key)
            self._entries -= len(bucket)
            self._unindex(key)
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Empty the cache (counters are preserved)."""
        self._data.clear()
        self._by_fingerprint.clear()
        self._entries = 0

    # ------------------------------------------------------------------
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
