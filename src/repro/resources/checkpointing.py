"""Crash-safe per-instance result journaling for interruptible sweeps.

A sweep over dozens of exponential-decider instances must survive a
deadline trip, a crash, a SIGKILL mid-write or a Ctrl-C without losing
the instances it already finished.  :class:`SweepJournal` is the small
append-only JSONL journal that makes sweeps resumable: each completed
instance is written (flushed and fsynced) as one line keyed by a
caller-chosen string, and re-opening the journal recovers every
completed key so the sweep can skip straight to the remaining work.

Journal format v2 makes the store *crash-safe* rather than merely
append-only:

* every line carries a CRC32 checksum over its canonical payload, so a
  bit-flipped or garbled record is *detected* instead of silently
  accepted or silently dropped;
* a **torn tail** — a partial final line, the signature of a hard kill
  mid-write — is recognised, cleanly truncated off the file on
  recovery, and reported, so the file returns to a well-formed state
  (at worst the one in-flight instance is recomputed);
* corrupt *interior* lines (checksum mismatch, undecodable JSON before
  the tail) are skipped but **counted**, never silently ignored;
* v1 lines written before checksums existed still load, counted as
  ``legacy`` so operators can tell "old format" from "damage";
* :meth:`compact` rewrites the journal atomically (tmp file + fsync +
  rename + directory fsync) keeping one checksummed record per key,
  purging superseded, legacy and corrupt lines.

:meth:`journal_stats` summarises all of this and :meth:`integrity`
folds it into a one-word verdict (``ok`` / ``recovered`` /
``corrupt``) surfaced by ``repro sweep`` and ``repro stats``.

Every reader of the format goes through :meth:`JournalScan.read`, one
read-only pass that classifies each line and finds the byte offset a
torn tail is cut at; :class:`SweepJournal` folds its entries and
repairs the file, while ``repro merge-journals`` and ``repro stats
--journal`` only report.  Every whole-file rewrite — compaction, the
merged journal, a shard lease — goes through :func:`_replace_file`.

The journal lives under ``benchmarks/results/`` by convention (the same
directory the paper-style tables are emitted to), but any path works.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from .governor import DISTRIBUTED

#: Journal line format version written by :meth:`SweepJournal.record`.
JOURNAL_VERSION = 2


def _checksum(payload: str) -> str:
    """CRC32 of the canonical payload, as 8 hex digits."""
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def _canonical(entry: Dict[str, Any]) -> str:
    """The canonical serialization the checksum covers."""
    return json.dumps(entry, sort_keys=True, separators=(",", ":"))


def _fsync_dir(directory: str) -> None:
    """fsync a directory so a just-created / just-renamed entry is
    durable against power loss, not merely against a process crash.

    An fsync on the *file* persists its blocks; the directory entry
    pointing at them lives in the directory's own metadata and needs
    its own fsync (POSIX leaves renames and creations volatile until
    then).  Platforms whose directories cannot be opened or fsynced
    (some network filesystems, Windows) degrade silently — the atomic
    rename still protects against process crashes there.
    """
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _journal_line(entry: Dict[str, Any]) -> str:
    """One serialized v2 journal line (checksum over the entry)."""
    return json.dumps(
        {
            "v": JOURNAL_VERSION,
            "crc": _checksum(_canonical(entry)),
            "entry": entry,
        },
        sort_keys=True,
    )


def _replace_file(
    path: str, chunks: Iterable[str], tmp_path: Optional[str] = None
) -> None:
    """Durably replace ``path`` with the concatenated ``chunks``.

    The text goes to ``tmp_path`` (default ``path + ".tmp"``), which is
    flushed and fsynced before it is renamed over ``path``; the parent
    directory is fsynced after the rename.  A crash at any point leaves
    either the old file or the new one, never a mix, and without the
    directory fsync the rename itself could be lost to power loss.
    """
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = tmp_path or path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.writelines(chunks)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_dir(directory)


def _integrity(corrupt: int, torn_tail: int) -> str:
    """The one integrity rule: damage beats a repaired torn tail."""
    if corrupt:
        return "corrupt"
    if torn_tail:
        return "recovered"
    return "ok"


@dataclass
class JournalScan:
    """One journal file, read and classified without touching it.

    ``entries`` holds every accepted record in file order as
    ``(entry, legacy)``: the checksummed inner entry of a v2 line, or
    the whole dict of a v1 line (``legacy`` true).  ``good_end`` is the
    byte offset just past the last complete line — where recovery cuts
    a torn tail off.
    """

    path: str
    present: bool = True
    entries: List[Tuple[Dict[str, Any], bool]] = field(default_factory=list)
    lines: int = 0
    legacy: int = 0
    corrupt: int = 0
    torn_tail: int = 0
    good_end: int = 0

    @classmethod
    def read(cls, path: str) -> "JournalScan":
        """Scan ``path``; a file that does not exist scans as not
        present (any other read error propagates).

        Lines are split and measured on the raw bytes, so an invalid
        UTF-8 sequence in a complete line cannot move the truncation
        offset.  A well-formed journal ends with a newline; a non-blank
        final chunk is a torn tail (a partial write cut by a hard
        kill).  Complete lines are blank, a v2 record whose CRC
        verifies, a v1 legacy record, or corrupt.
        """
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return cls(path=path, present=False)
        *complete, tail = raw.split(b"\n")
        scan = cls(
            path=path,
            lines=len(complete),
            torn_tail=int(bool(tail.decode("utf-8", "replace").strip())),
            good_end=len(raw) - len(tail),
        )
        for chunk in complete:
            line = chunk.decode("utf-8", "replace").strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                record = None
            entry, legacy = None, False
            if isinstance(record, dict):
                if "crc" in record and "entry" in record:
                    inner = record["entry"]
                    if (
                        isinstance(inner, dict)
                        and "key" in inner
                        and _checksum(_canonical(inner)) == record["crc"]
                    ):
                        entry = inner
                elif "key" in record:
                    entry, legacy = record, True
            if entry is None:
                scan.corrupt += 1
            else:
                scan.legacy += legacy
                scan.entries.append((entry, legacy))
        return scan

    def integrity(self) -> str:
        """``missing`` for an absent file, else the journal verdict
        (see :meth:`SweepJournal.integrity`)."""
        if not self.present:
            return "missing"
        return _integrity(self.corrupt, self.torn_tail)


class SweepJournal:
    """Append-only, checksummed JSONL journal of per-instance results.

    Parameters
    ----------
    path:
        The journal file; created (with parent directories) on first
        record.  Existing records are loaded (and the file repaired if
        it ends in a torn line) eagerly.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._results: Dict[str, Any] = {}
        self._lines = 0
        self._compactions = 0
        self._zero_counts()
        self._load()

    def _zero_counts(self) -> None:
        """Forget the integrity counts of lines no longer on disk
        (subclasses extend this with their own counts)."""
        self._legacy = 0
        self._corrupt = 0
        self._superseded = 0
        self._torn_tail = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _load(self) -> None:
        scan = JournalScan.read(self.path)
        self._lines = scan.lines
        self._legacy = scan.legacy
        self._corrupt = scan.corrupt
        self._torn_tail = scan.torn_tail
        DISTRIBUTED.journal_corrupt_lines += scan.corrupt
        for entry, _ in scan.entries:
            self._store(str(entry["key"]), entry.get("result"), entry)
        if scan.torn_tail:
            # Damaged but complete lines stay in place; only the
            # partial final line is cut off.
            self._truncate_to(scan.good_end)

    def _store(
        self, key: str, result: Any, entry: Optional[Dict[str, Any]] = None
    ) -> None:
        """Fold one accepted entry into the in-memory state.

        ``entry`` is the full decoded record; subclasses (the fenced
        shard journal) use it to track writer metadata the base class
        ignores."""
        if key in self._results:
            self._superseded += 1
        self._results[key] = result

    def _truncate_to(self, size: int) -> None:
        DISTRIBUTED.journal_recoveries += 1
        with open(self.path, "r+b") as handle:
            handle.truncate(size)
            handle.flush()
            os.fsync(handle.fileno())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._results)

    def __contains__(self, key: str) -> bool:
        return key in self._results

    def is_done(self, key: str) -> bool:
        """Whether ``key`` already has a journaled result."""
        return key in self._results

    def result(self, key: str) -> Optional[Any]:
        """The journaled result for ``key`` (``None`` if absent)."""
        return self._results.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._results)

    # ------------------------------------------------------------------
    # Integrity reporting
    # ------------------------------------------------------------------
    def journal_stats(self) -> Dict[str, Any]:
        """A JSON-serializable summary of the journal's health.

        ``legacy`` counts v1 lines without a checksum (old format, still
        trusted); ``corrupt`` counts complete lines that failed their
        checksum or could not be parsed — damage, never silently
        dropped; ``torn_tail`` is 1 when recovery truncated a partial
        final line off the file.
        """
        return {
            "path": self.path,
            "version": JOURNAL_VERSION,
            "records": len(self._results),
            "lines": self._lines,
            "legacy": self._legacy,
            "corrupt": self._corrupt,
            "superseded": self._superseded,
            "torn_tail": self._torn_tail,
            "compactions": self._compactions,
            "integrity": self.integrity(),
        }

    def integrity(self) -> str:
        """One-word integrity verdict.

        ``ok``
            Every line was a well-formed checksummed (or legacy) record.
        ``recovered``
            A torn tail was truncated on load; the journal is now clean
            and at most one in-flight instance will be recomputed.
        ``corrupt``
            At least one *complete* line failed its checksum or did not
            parse — those records were lost to damage (not to a clean
            kill) and are reported rather than silently skipped.
        """
        return _integrity(self._corrupt, self._torn_tail)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _record_entry(self, key: str, result: Any) -> Dict[str, Any]:
        """The inner entry dict one :meth:`record` call journals
        (subclasses stamp writer metadata — fencing token, owner —
        onto it)."""
        return {"key": key, "result": result}

    def record(self, key: str, result: Any) -> None:
        """Journal one completed instance (written, flushed, fsynced).

        ``result`` must be JSON-serializable.  Re-recording a key
        overwrites its in-memory result and appends a superseding line
        (last record wins on reload; :meth:`compact` purges the old
        ones).  The *first* record additionally fsyncs the parent
        directory, so the journal's creation itself survives power
        loss — an fsynced file whose directory entry was never
        persisted is as lost as an unwritten one.
        """
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        created = not os.path.exists(self.path)
        entry = self._record_entry(key, result)
        line = _journal_line(entry)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        if created:
            _fsync_dir(directory)
        self._lines += 1
        DISTRIBUTED.journal_records += 1
        self._store(key, result, entry)

    def compact(self) -> Dict[str, Any]:
        """Atomically rewrite the journal: one v2 record per key.

        Superseded, legacy and corrupt lines are purged; the rewrite
        goes through :func:`_replace_file`, so a crash at any point leaves
        either the old file or the new one — never a mix.  Returns
        :meth:`journal_stats` of the compacted journal.
        """
        _replace_file(self.path, (
            _journal_line(self._record_entry(key, result)) + "\n"
            for key, result in self._results.items()
        ))
        self._lines = len(self._results)
        self._zero_counts()
        self._compactions += 1
        DISTRIBUTED.journal_compactions += 1
        return self.journal_stats()

    def needs_compaction(self) -> bool:
        """Whether a compaction would change the on-disk file."""
        return bool(self._legacy or self._corrupt or self._superseded)

    def reset(self) -> None:
        """Delete the journal file and forget every result."""
        self._results.clear()
        self._lines = 0
        self._legacy = 0
        self._corrupt = 0
        self._superseded = 0
        self._torn_tail = 0
        if os.path.exists(self.path):
            os.remove(self.path)
            _fsync_dir(os.path.dirname(self.path))


class _ReadOnlyJournal(SweepJournal):
    """A journal loaded only to report on it (``repro stats
    --journal``): a torn tail is counted, never cut off, because only a
    lease owner truncates and a live writer may still be appending."""

    def _truncate_to(self, size: int) -> None:
        pass
