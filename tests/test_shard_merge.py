"""Multi-journal merge: fencing, torn tails, damage, grid coverage.

Hand-crafted shard journals exercise every conflict the merge tool must
resolve: duplicate keys across fences (a stale pre-steal writer racing
its thief), torn tails from hard kills, checksum-corrupt interior
lines, absent journals, and grids with missing or unexpected keys.
"""

import json
import os
import zlib

from repro.cli import main
from repro.distributed.journal import FencedShardJournal
from repro.distributed.merge import (
    merge_journals,
    normalize_results,
    read_done_keys,
    scan_shard_journal,
    write_combined_journal,
)
from repro.distributed.sharding import journal_path, shard_journal_paths
from repro.resources import SweepJournal


def _write_fenced(path, records, fence, owner):
    """Append checksummed records stamped with one writer's fence."""
    journal = FencedShardJournal(path, fence=fence, owner=owner)
    for key, result in records:
        journal.record(key, result)


# ---------------------------------------------------------------------------
# Fence resolution
# ---------------------------------------------------------------------------
def test_duplicate_keys_resolve_to_highest_fence(tmp_path):
    """A stale fence-1 line *after* the thief's fence-2 line (the
    classic post-steal race) loses; and vice versa."""
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(path, [("x", {"status": "ok", "result": 1})], 2, "thief")
    _write_fenced(path, [("x", {"status": "ok", "result": 0})], 1, "victim")

    scan = scan_shard_journal(path)
    assert len(scan.records) == 2
    report = merge_journals([path])
    assert report.results["x"] == {"status": "ok", "result": 1}
    assert report.fences["x"] == (2, "thief")
    assert report.fenced_out == 1
    assert report.duplicate_keys == ["x"]
    assert not report.clean  # a fenced-out writer is a finding


def test_stale_line_before_thief_line_also_loses(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(path, [("x", {"status": "ok", "result": 0})], 1, "victim")
    _write_fenced(path, [("x", {"status": "ok", "result": 1})], 2, "thief")
    report = merge_journals([path])
    assert report.results["x"] == {"status": "ok", "result": 1}
    assert report.fenced_out == 1


def test_same_fence_re_record_is_superseded_not_fenced(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(
        path,
        [("x", {"status": "ok", "result": 0}),
         ("x", {"status": "ok", "result": 7})],
        1, "only",
    )
    report = merge_journals([path])
    assert report.results["x"]["result"] == 7  # later line wins
    assert report.fenced_out == 0
    assert report.duplicate_keys == ["x"]
    assert report.clean


def test_reloading_a_journal_fences_out_stale_lines(tmp_path):
    """FencedShardJournal itself applies the same rule on reload."""
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(path, [("x", {"status": "ok", "result": 1})], 2, "thief")
    _write_fenced(path, [("x", {"status": "ok", "result": 0})], 1, "victim")
    journal = FencedShardJournal(path, fence=3, owner="reader")
    assert journal.result("x") == {"status": "ok", "result": 1}
    assert journal.key_fence("x") == (2, "thief")
    assert journal.journal_stats()["fenced_out"] == 1


# ---------------------------------------------------------------------------
# Damage
# ---------------------------------------------------------------------------
def test_torn_tail_is_recovered_not_a_finding(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(path, [("x", {"status": "ok", "result": 1})], 1, "r1")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"v": 2, "crc": "dead', )  # mid-write SIGKILL
    scan = scan_shard_journal(path)
    assert scan.torn_tail == 1
    assert scan.integrity() == "recovered"
    report = merge_journals([path], expected_keys=["x"])
    assert report.clean
    # Read-only: the torn tail must still be on disk afterwards.
    with open(path, encoding="utf-8") as fh:
        assert fh.read().endswith('"crc": "dead')


def test_corrupt_interior_line_is_a_finding(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(path, [("x", {"status": "ok", "result": 1})], 1, "r1")
    entry = {"key": "y", "result": {"status": "ok", "result": 2}}
    bad_crc = f"{zlib.crc32(b'not the payload') & 0xFFFFFFFF:08x}"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"v": 2, "crc": bad_crc, "entry": entry}) + "\n")
    scan = scan_shard_journal(path)
    assert scan.corrupt == 1
    assert scan.integrity() == "corrupt"
    report = merge_journals([path], expected_keys=["x", "y"])
    assert not report.clean
    assert report.corrupt_lines == 1
    assert report.missing == ["y"]  # the damaged record is truly lost


def test_missing_journal_is_a_finding(tmp_path):
    present = str(tmp_path / "shard-0000.jsonl")
    absent = str(tmp_path / "shard-0001.jsonl")
    _write_fenced(present, [("x", {"status": "ok"})], 1, "r1")
    report = merge_journals([present, absent], expected_keys=["x"])
    assert not report.clean
    stats = {s["path"]: s for s in report.shards}
    assert stats[present]["integrity"] == "ok"
    assert stats[absent]["integrity"] == "missing"


def test_grid_coverage_missing_and_unexpected(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(
        path,
        [("b", {"status": "ok"}), ("stray", {"status": "ok"})],
        1, "r1",
    )
    report = merge_journals([path], expected_keys=["a", "b"])
    assert report.missing == ["a"]
    assert report.unexpected == ["stray"]
    assert report.findings == 2
    # Expected keys come first, in grid order; strays after.
    assert list(report.results) == ["b", "stray"]


def test_legacy_v1_lines_load_at_fence_zero(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": "old", "result": {"status": "ok"}}) + "\n")
    _write_fenced(path, [("old", {"status": "ok", "result": 9})], 1, "r1")
    scan = scan_shard_journal(path)
    assert scan.legacy == 1
    report = merge_journals([path])
    assert report.results["old"]["result"] == 9
    assert report.fenced_out == 1  # the fence-0 legacy line lost


# ---------------------------------------------------------------------------
# Outputs
# ---------------------------------------------------------------------------
def test_combined_journal_resumes_as_plain_sweep_journal(tmp_path):
    shard_a = str(tmp_path / "a.jsonl")
    shard_b = str(tmp_path / "b.jsonl")
    _write_fenced(shard_a, [("k1", {"status": "ok", "result": 1})], 1, "r1")
    _write_fenced(shard_b, [("k2", {"status": "ok", "result": 2})], 3, "r2")
    report = merge_journals([shard_a, shard_b], expected_keys=["k1", "k2"])
    combined = str(tmp_path / "combined.jsonl")
    write_combined_journal(combined, report)
    journal = SweepJournal(combined)
    assert journal.integrity() == "ok"
    assert len(journal) == 2
    assert journal.result("k2") == {"status": "ok", "result": 2}


def test_read_done_keys_is_read_only_and_fence_aware(tmp_path):
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(path, [("x", {"status": "ok"})], 1, "r1")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"torn')
    before = os.path.getsize(path)
    done = read_done_keys(path)
    assert done == {"x": 1}
    assert os.path.getsize(path) == before  # no truncation


def test_normalize_strips_exactly_the_volatile_fields():
    results = {
        "k": {
            "status": "ok",
            "elapsed_s": 0.123,
            "result": {"value": 1, "nodes": 42, "backtracks": 7},
        },
        "q": {"status": "unknown", "error": "DeadlineExceededError",
              "elapsed_s": 9.9},
    }
    slim = normalize_results(results)
    assert slim["k"] == {"status": "ok", "result": {"value": 1}}
    assert slim["q"] == {"status": "unknown",
                         "error": "DeadlineExceededError"}
    # The input is not mutated.
    assert results["k"]["elapsed_s"] == 0.123


# ---------------------------------------------------------------------------
# The CLI
# ---------------------------------------------------------------------------
def test_cli_merge_exit_0_when_clean(tmp_path, capsys):
    path = str(journal_path(str(tmp_path), 0))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _write_fenced(path, [("x", {"status": "ok"})], 1, "r1")
    code = main(["merge-journals", path])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"]
    assert payload["instances"] == 1


def test_cli_merge_exit_2_on_findings(tmp_path, capsys):
    shard_dir = str(tmp_path)
    path = journal_path(shard_dir, 0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    _write_fenced(path, [("x", {"status": "ok", "result": 1})], 2, "thief")
    _write_fenced(path, [("x", {"status": "ok", "result": 0})], 1, "victim")
    code = main(["merge-journals", "--shard-dir", shard_dir, "--shards", "2"])
    assert code == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["fenced_out"] == 1
    # shard 1's journal never existed: reported per shard.
    integrity = [s["integrity"] for s in payload["shards"]]
    assert integrity == ["corrupt", "missing"] or integrity == [
        "ok", "missing"
    ]
    assert payload["results"]["x"]["result"] == 1


def test_cli_merge_requires_inputs(tmp_path, capsys):
    assert main(["merge-journals"]) == 2
    assert main(["merge-journals", "--shard-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_merge_normalize_and_output(tmp_path, capsys):
    path = str(tmp_path / "shard.jsonl")
    _write_fenced(
        path,
        [("x", {"status": "ok", "elapsed_s": 1.0,
                "result": {"value": 3, "nodes": 5}})],
        1, "r1",
    )
    combined = str(tmp_path / "combined.jsonl")
    code = main(["merge-journals", path, "--normalize",
                 "--output", combined])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["x"] == {
        "status": "ok", "result": {"value": 3}
    }
    # --normalize affects the report only; the combined journal keeps
    # the full records.
    journal = SweepJournal(combined)
    assert journal.result("x")["elapsed_s"] == 1.0
    assert shard_journal_paths(str(tmp_path), 1)  # layout helper sanity
