"""Crash-safe multi-journal merge: validate, fence, compact, report.

``repro merge-journals`` is the read side of the sharded runtime: given
the K shard journals of a sweep (each possibly written by several
runners across steals, kills and retries), it

* **validates** every line's CRC32 checksum, counting corrupt lines,
  legacy (pre-checksum) lines and torn tails per shard with the same
  scan :class:`~repro.resources.SweepJournal` recovers from, but
  *read-only*: merging never mutates a shard journal, because a live
  runner may still be appending to it;
* **resolves duplicate keys by fencing token** — when the same key was
  written more than once (a stale pre-steal owner racing its thief),
  the record with the highest fencing token wins and the losers are
  counted as ``fenced_out``.  Ties (a writer re-recording under its
  own lease) resolve to the later line, matching single-journal
  semantics;
* **reports per-shard integrity** (``ok`` / ``recovered`` /
  ``corrupt`` / ``missing``) plus the merged totals, and — given the
  expected instance grid — the keys still missing and any unexpected
  strays;
* **compacts** the winners into one combined journal-v2 file
  (atomic tmp + fsync + rename + directory fsync) that a single-host
  ``repro sweep --journal`` run would resume from directly.

Equivalence to a single-host run is *semantic*: the merged results
carry the same statuses, verdicts, widths and witnesses as an
uninterrupted single-host sweep of the same grid, while wall-clock
fields (``elapsed_s``) and cache-warmth counters (``nodes``,
``backtracks``) legitimately differ per run.  :func:`normalize_results`
strips exactly those volatile fields so reports can be compared
byte-for-byte; the shard-kill equivalence tests and the CI
``shard-chaos`` gate do precisely that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..resources.checkpointing import JournalScan, _journal_line, _replace_file

#: Record-level fields that legitimately differ between runs (wall
#: clock) and result-level fields that depend on cache warmth — the
#: same sets the SIGKILL-resume equivalence tests strip.
VOLATILE_RECORD_FIELDS = ("elapsed_s",)
VOLATILE_RESULT_FIELDS = ("nodes", "backtracks")


class ShardScan(JournalScan):
    """One shard journal, parsed read-only."""

    @property
    def records(self) -> List[Dict[str, Any]]:
        """The accepted records with their writer stamps (a legacy
        line predates fencing: fence 0, no owner)."""
        return [
            {
                "key": str(entry["key"]),
                "result": entry.get("result"),
                "fence": 0 if legacy else int(entry.get("fence", 0)),
                "owner": "" if legacy else str(entry.get("owner", "")),
            }
            for entry, legacy in self.entries
        ]

    def stats(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "present": self.present,
            "records": len(self.entries),
            "lines": self.lines,
            "corrupt": self.corrupt,
            "legacy": self.legacy,
            "torn_tail": self.torn_tail,
            "integrity": self.integrity(),
        }


def scan_shard_journal(path: str) -> ShardScan:
    """Parse one shard journal without touching it on disk.

    Unlike :class:`~repro.resources.SweepJournal`, a torn tail is
    *counted but not truncated* — the writer may still be alive and
    mid-append; only the lease owner repairs its own journal.  A
    journal that cannot be read at all is reported as missing.
    """
    try:
        return ShardScan.read(path)
    except OSError:
        return ShardScan(path=path, present=False)


def read_done_keys(path: str) -> Dict[str, int]:
    """The completed keys of one shard journal (key → winning fence),
    read-only — the runner's cheap "is this shard already finished"
    probe."""
    winners: Dict[str, int] = {}
    for record in scan_shard_journal(path).records:
        if record["fence"] >= winners.get(record["key"], -1):
            winners[record["key"]] = record["fence"]
    return winners


@dataclass
class MergeReport:
    """What merging K shard journals produced."""

    shards: List[Dict[str, Any]] = field(default_factory=list)
    results: Dict[str, Any] = field(default_factory=dict)
    fences: Dict[str, Tuple[int, str]] = field(default_factory=dict)
    fenced_out: int = 0
    duplicate_keys: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    unexpected: List[str] = field(default_factory=list)

    @property
    def corrupt_lines(self) -> int:
        return sum(s["corrupt"] for s in self.shards)

    @property
    def findings(self) -> int:
        """Integrity findings an operator must look at: damage, fenced
        writers, absent journals and grid mismatches.  A torn tail
        alone is *not* a finding — truncation recovery is the designed
        response to a hard kill, and its instance is either recomputed
        (present) or missing (already counted)."""
        absent = sum(1 for s in self.shards if not s["present"])
        return (
            self.corrupt_lines
            + self.fenced_out
            + absent
            + len(self.missing)
            + len(self.unexpected)
        )

    @property
    def clean(self) -> bool:
        return self.findings == 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "shards": self.shards,
            "instances": len(self.results),
            "results": self.results,
            "fenced_out": self.fenced_out,
            "duplicate_keys": self.duplicate_keys,
            "missing": self.missing,
            "unexpected": self.unexpected,
            "corrupt_lines": self.corrupt_lines,
            "findings": self.findings,
            "clean": self.clean,
        }


def merge_journals(
    paths: Sequence[str],
    expected_keys: Optional[Sequence[str]] = None,
) -> MergeReport:
    """Merge shard journals into one fence-resolved result set.

    ``expected_keys`` — the instance grid in its deterministic order —
    fixes the output ordering and enables missing/unexpected
    accounting; without it, merged results appear in sorted key order.
    """
    report = MergeReport()
    winners: Dict[str, Tuple[int, int, Any, str]] = {}
    seen_twice: set = set()
    sequence = 0
    for path in paths:
        scan = scan_shard_journal(path)
        report.shards.append(scan.stats())
        for record in scan.records:
            sequence += 1
            key = record["key"]
            incumbent = winners.get(key)
            if incumbent is not None:
                seen_twice.add(key)
                if record["fence"] < incumbent[0]:
                    # Stale writer's line loses to an already-seen
                    # higher fence.
                    report.fenced_out += 1
                    continue
                if record["fence"] > incumbent[0]:
                    # ... or the higher fence arrives second and
                    # retires the incumbent.  Equal fences are the
                    # same writer re-recording: superseded, not fenced.
                    report.fenced_out += 1
            winners[key] = (
                record["fence"], sequence, record["result"], record["owner"],
            )
    report.duplicate_keys = sorted(seen_twice)

    order: Iterable[str]
    if expected_keys is not None:
        expected = list(expected_keys)
        expected_set = set(expected)
        report.missing = [k for k in expected if k not in winners]
        report.unexpected = sorted(
            k for k in winners if k not in expected_set
        )
        order = [k for k in expected if k in winners] + report.unexpected
    else:
        order = sorted(winners)
    for key in order:
        fence, _, result, owner = winners[key]
        report.results[key] = result
        report.fences[key] = (fence, owner)
    return report


def write_combined_journal(path: str, report: MergeReport) -> str:
    """Compact the merged winners into one plain journal-v2 file.

    The output is writer-metadata-free — exactly what a single-host
    sweep would have journaled — so ``repro sweep --journal`` resumes
    from it directly.  Written atomically (tmp + fsync + rename +
    directory fsync).
    """
    _replace_file(path, (
        _journal_line({"key": key, "result": result}) + "\n"
        for key, result in report.results.items()
    ))
    return path


def normalize_results(results: Dict[str, Any]) -> Dict[str, Any]:
    """Strip the volatile fields (wall clock, cache-warmth counters)
    from a results mapping, leaving only what must be identical between
    a merged sharded run and a single-host run of the same grid."""
    normalized: Dict[str, Any] = {}
    for key, record in results.items():
        if not isinstance(record, dict):
            normalized[key] = record
            continue
        slim = {
            k: v for k, v in record.items()
            if k not in VOLATILE_RECORD_FIELDS
        }
        if isinstance(slim.get("result"), dict):
            slim["result"] = {
                k: v for k, v in slim["result"].items()
                if k not in VOLATILE_RESULT_FIELDS
            }
        normalized[key] = slim
    return normalized
