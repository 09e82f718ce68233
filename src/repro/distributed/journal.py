"""The per-shard journal: journal v2 plus writer fencing metadata.

A shard journal is an ordinary crash-safe
:class:`~repro.resources.SweepJournal` (CRC32-checksummed lines, torn
tail truncation, atomic compaction, directory fsyncs) whose entries
additionally carry *who* wrote them: the owner id and the fencing token
of the lease under which the write happened.  That stamp is what makes
work-stealing safe — a stolen shard's stale former owner may keep
appending for up to one heartbeat interval after losing its lease, but
every such line carries the *old* token, so both this class (on reload)
and ``repro merge-journals`` (across shards) discard it in favour of
the highest-fenced record per key.

The base class's resume contract is unchanged: the thief opens the same
journal file, loads the victim's valid records (their lower fence is
fine — they were written while the victim legitimately held the lease)
and recomputes only what is missing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from ..resources.checkpointing import SweepJournal


class FencedShardJournal(SweepJournal):
    """A :class:`~repro.resources.SweepJournal` whose records carry the
    writer's fencing token and owner id.

    Parameters
    ----------
    path:
        The shard journal file.
    fence:
        The fencing token of the lease this writer holds; stamped on
        every record it appends.
    owner:
        The runner id, stamped next to the token.
    guard:
        Optional callable invoked before every :meth:`record` — the
        runner passes its lease heartbeat here, so a write after a
        steal raises :class:`~repro.exceptions.LeaseLostError` instead
        of appending (belt; the merge-time fence resolution is the
        braces).
    """

    def __init__(
        self,
        path: str,
        *,
        fence: int,
        owner: str,
        guard: Optional[Callable[[], None]] = None,
    ) -> None:
        self.fence = int(fence)
        self.owner = owner
        self.guard = guard
        self._fences: Dict[str, Tuple[int, str]] = {}
        super().__init__(path)

    def _zero_counts(self) -> None:
        super()._zero_counts()
        self._fenced_out = 0

    # ------------------------------------------------------------------
    def _store(
        self, key: str, result: Any, entry: Optional[Dict[str, Any]] = None
    ) -> None:
        """Keep the *highest-fenced* record per key (not the last line:
        a stale pre-steal writer may append after the thief)."""
        fence = int((entry or {}).get("fence", 0))
        owner = str((entry or {}).get("owner", ""))
        if key in self._results:
            held, _ = self._fences.get(key, (0, ""))
            if fence < held:
                self._fenced_out += 1
                return  # stale writer's line loses; do not overwrite
            self._superseded += 1
        self._results[key] = result
        self._fences[key] = (fence, owner)

    def _record_entry(self, key: str, result: Any) -> Dict[str, Any]:
        fence, owner = self._fences.get(key, (self.fence, self.owner))
        return {"key": key, "result": result,
                "fence": fence, "owner": owner}

    def record(self, key: str, result: Any) -> None:
        if self.guard is not None:
            self.guard()
        # Stamp *this* writer's identity before the entry is built, so
        # a re-recorded key is re-fenced at our (current) token.
        self._fences[key] = (self.fence, self.owner)
        super().record(key, result)

    # ------------------------------------------------------------------
    def key_fence(self, key: str) -> Optional[Tuple[int, str]]:
        """The ``(fence, owner)`` stamp a loaded key was accepted
        under, or ``None`` for unknown keys."""
        return self._fences.get(key)

    def journal_stats(self) -> Dict[str, Any]:
        stats = super().journal_stats()
        stats["fence"] = self.fence
        stats["owner"] = self.owner
        stats["fenced_out"] = self._fenced_out
        return stats

    def reset(self) -> None:
        super().reset()
        self._fences.clear()
        self._zero_counts()
