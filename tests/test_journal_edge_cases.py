"""Hand-crafted journal files exercising every v2 recovery path.

Unlike the round-trip tests in ``test_resources.py`` (which write
through :meth:`SweepJournal.record`), every journal here is built from
raw bytes, so the exact on-disk shape — torn tails, checksum mismatches,
legacy v1 lines, superseding records, blank lines, malformed JSON — is
pinned down, and ``journal_stats`` is asserted counter-by-counter.
"""

import json
import os
import zlib

from repro.resources import SweepJournal


def _crc(entry: dict) -> str:
    payload = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return f"{zlib.crc32(payload.encode('utf-8')) & 0xFFFFFFFF:08x}"


def v2_line(key: str, result) -> str:
    """A well-formed v2 journal line (checksummed), newline included."""
    entry = {"key": key, "result": result}
    return json.dumps(
        {"v": 2, "crc": _crc(entry), "entry": entry}, sort_keys=True
    ) + "\n"


def v1_line(key: str, result) -> str:
    """A legacy (pre-checksum) line, newline included."""
    return json.dumps({"key": key, "result": result}) + "\n"


def write_journal(tmp_path, content: str) -> str:
    path = str(tmp_path / "journal.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path


def stats_of(path: str) -> dict:
    return SweepJournal(path).journal_stats()


class TestCleanJournals:
    def test_missing_file_stats(self, tmp_path):
        stats = stats_of(str(tmp_path / "absent.jsonl"))
        assert stats["records"] == 0
        assert stats["lines"] == 0
        assert stats["legacy"] == stats["corrupt"] == 0
        assert stats["superseded"] == stats["torn_tail"] == 0
        assert stats["integrity"] == "ok"

    def test_empty_file_is_ok(self, tmp_path):
        stats = stats_of(write_journal(tmp_path, ""))
        assert stats["records"] == 0 and stats["lines"] == 0
        assert stats["integrity"] == "ok"

    def test_blank_lines_count_as_lines_not_corruption(self, tmp_path):
        path = write_journal(
            tmp_path, v2_line("a", 1) + "\n" + "   \n" + v2_line("b", 2)
        )
        stats = stats_of(path)
        assert stats["records"] == 2
        assert stats["lines"] == 4  # both blanks are complete lines
        assert stats["corrupt"] == 0
        assert stats["integrity"] == "ok"

    def test_inner_key_order_does_not_matter(self, tmp_path):
        # the checksum covers the *canonical* (sorted, compact)
        # serialization, so a semantically equal line with reordered
        # inner keys and extra whitespace still verifies
        entry = {"result": 5, "key": "a"}
        line = json.dumps({"entry": entry, "crc": _crc(entry), "v": 2})
        journal = SweepJournal(write_journal(tmp_path, line + "\n"))
        assert journal.result("a") == 5
        assert journal.journal_stats()["integrity"] == "ok"


class TestTornTails:
    def test_partial_json_tail_truncated(self, tmp_path):
        intact = v2_line("a", 1) + v2_line("b", 2)
        path = write_journal(tmp_path, intact + '{"v": 2, "crc": "ab')
        journal = SweepJournal(path)
        stats = journal.journal_stats()
        assert stats["records"] == 2
        assert stats["lines"] == 2  # the torn chunk is not a line
        assert stats["torn_tail"] == 1
        assert stats["corrupt"] == 0
        assert stats["integrity"] == "recovered"
        # the file is repaired in place, byte-exact
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == intact

    def test_valid_json_without_newline_is_still_torn(self, tmp_path):
        # a record whose final "\n" never hit the disk cannot be trusted
        # complete, even if it happens to parse
        path = write_journal(
            tmp_path, v2_line("a", 1) + v2_line("b", 2).rstrip("\n")
        )
        journal = SweepJournal(path)
        assert journal.is_done("a")
        assert not journal.is_done("b")
        stats = journal.journal_stats()
        assert stats["records"] == 1
        assert stats["torn_tail"] == 1
        assert stats["integrity"] == "recovered"

    def test_file_that_is_one_torn_line_truncates_to_empty(self, tmp_path):
        path = write_journal(tmp_path, '{"v": 2')
        journal = SweepJournal(path)
        stats = journal.journal_stats()
        assert stats["records"] == stats["lines"] == 0
        assert stats["torn_tail"] == 1
        assert stats["integrity"] == "recovered"
        assert os.path.getsize(path) == 0

    def test_reload_after_recovery_is_clean(self, tmp_path):
        path = write_journal(tmp_path, v2_line("a", 1) + '{"partial')
        SweepJournal(path)  # first load truncates
        stats = stats_of(path)
        assert stats["torn_tail"] == 0
        assert stats["integrity"] == "ok"
        assert stats["records"] == 1

    def test_invalid_utf8_line_does_not_shift_the_cut(self, tmp_path):
        """Offsets are raw bytes: a complete line holding invalid UTF-8
        (bit rot) must not move where the torn tail is cut, or a
        fragment of the tail survives and the next record is glued
        onto it."""
        intact = v2_line("a", 1).encode() + b"\xff\xfe\n"
        path = str(tmp_path / "journal.jsonl")
        with open(path, "wb") as handle:
            handle.write(intact + b'{"crc": "torn')
        journal = SweepJournal(path)
        assert journal.journal_stats()["corrupt"] == 1
        with open(path, "rb") as handle:
            assert handle.read() == intact
        journal.record("b", 2)
        reloaded = SweepJournal(path)
        assert sorted(reloaded.keys()) == ["a", "b"]
        stats = reloaded.journal_stats()
        assert stats["corrupt"] == 1  # the rotten line, nothing more
        assert stats["torn_tail"] == 0


class TestBadChecksums:
    def test_wrong_crc_is_corrupt(self, tmp_path):
        entry = {"key": "a", "result": 1}
        line = json.dumps({"v": 2, "crc": "00000000", "entry": entry})
        journal = SweepJournal(write_journal(tmp_path, line + "\n"))
        assert not journal.is_done("a")
        stats = journal.journal_stats()
        assert stats["records"] == 0
        assert stats["lines"] == 1
        assert stats["corrupt"] == 1
        assert stats["integrity"] == "corrupt"

    def test_uppercase_crc_does_not_verify(self, tmp_path):
        entry = {"key": "a", "result": 1}
        line = json.dumps(
            {"v": 2, "crc": _crc(entry).upper(), "entry": entry}
        )
        stats = stats_of(write_journal(tmp_path, line + "\n"))
        assert stats["corrupt"] == 1

    def test_tampered_result_detected(self, tmp_path):
        entry = {"key": "a", "result": 1}
        crc = _crc(entry)
        entry["result"] = 999  # bit rot after the checksum was computed
        line = json.dumps({"v": 2, "crc": crc, "entry": entry})
        journal = SweepJournal(write_journal(tmp_path, line + "\n"))
        assert journal.result("a") is None
        assert journal.journal_stats()["corrupt"] == 1

    def test_structural_damage_variants(self, tmp_path):
        content = "".join([
            "not json at all\n",                    # unparseable
            "[1, 2, 3]\n",                          # parses, not a dict
            '"just a string"\n',                    # parses, not a dict
            '{"v": 2, "crc": "00000000"}\n',        # crc without entry
            '{"v": 2, "crc": "00000000", "entry": [1]}\n',  # entry not dict
            json.dumps({
                "v": 2,
                "crc": _crc({"result": 1}),
                "entry": {"result": 1},             # entry without key
            }) + "\n",
            v2_line("good", 42),
        ])
        journal = SweepJournal(write_journal(tmp_path, content))
        stats = journal.journal_stats()
        assert journal.result("good") == 42
        assert stats["records"] == 1
        assert stats["lines"] == 7
        assert stats["corrupt"] == 6
        assert stats["integrity"] == "corrupt"


class TestLegacyLines:
    def test_pure_v1_journal(self, tmp_path):
        path = write_journal(
            tmp_path, v1_line("a", 1) + v1_line("b", {"w": 2})
        )
        journal = SweepJournal(path)
        assert journal.result("a") == 1
        assert journal.result("b") == {"w": 2}
        stats = journal.journal_stats()
        assert stats["records"] == 2
        assert stats["legacy"] == 2
        assert stats["corrupt"] == 0
        assert stats["integrity"] == "ok"  # old format is not damage

    def test_v1_and_v2_interleaved_last_wins(self, tmp_path):
        path = write_journal(
            tmp_path,
            v1_line("a", "old") + v2_line("a", "new") + v2_line("b", 1)
            + v1_line("b", 2),
        )
        journal = SweepJournal(path)
        assert journal.result("a") == "new"   # v2 supersedes v1
        assert journal.result("b") == 2       # v1 supersedes v2 too
        stats = journal.journal_stats()
        assert stats["records"] == 2
        assert stats["legacy"] == 2
        assert stats["superseded"] == 2
        assert SweepJournal(path).needs_compaction()


class TestSupersededCounting:
    def test_exact_superseded_count(self, tmp_path):
        path = write_journal(
            tmp_path,
            v2_line("a", 1) + v2_line("a", 2) + v2_line("a", 3)
            + v2_line("b", 1) + v2_line("b", 2),
        )
        journal = SweepJournal(path)
        stats = journal.journal_stats()
        assert stats["records"] == 2
        assert stats["lines"] == 5
        assert stats["superseded"] == 3  # two rewrites of a, one of b
        assert journal.result("a") == 3 and journal.result("b") == 2

    def test_compaction_purges_and_zeroes_counters(self, tmp_path):
        path = write_journal(
            tmp_path,
            v1_line("a", 1) + v2_line("a", 2) + "garbage\n"
            + v2_line("b", 1),
        )
        journal = SweepJournal(path)
        assert journal.needs_compaction()
        stats = journal.compact()
        assert stats["records"] == 2
        assert stats["lines"] == 2
        assert stats["legacy"] == stats["corrupt"] == 0
        assert stats["superseded"] == 0
        assert stats["compactions"] == 1
        assert stats["integrity"] == "ok"
        # the rewritten file reloads with pristine counters
        reloaded = stats_of(path)
        assert reloaded["records"] == reloaded["lines"] == 2
        assert reloaded["integrity"] == "ok"


class TestCompositeJournal:
    def test_everything_at_once_exact_counters(self, tmp_path):
        path = write_journal(tmp_path, "".join([
            v1_line("a", "v1"),                   # legacy
            v2_line("a", "v2"),                   # supersedes a
            "\n",                                 # blank (benign)
            "корр\n",                             # unparseable (corrupt)
            v2_line("b", [1, 2]),
            v1_line("b", [3]),                    # legacy, supersedes b
            '{"v": 2, "crc": "deadbeef", "entry": {"key": "c", '
            '"result": 0}}\n',                    # bad crc (corrupt)
            v2_line("d", None),
            '{"v": 2, "crc": "to',                # torn tail
        ]))
        journal = SweepJournal(path)
        stats = journal.journal_stats()
        assert stats["records"] == 3              # a, b, d (c rejected)
        assert stats["lines"] == 8                # torn chunk excluded
        assert stats["legacy"] == 2
        assert stats["corrupt"] == 2
        assert stats["superseded"] == 2
        assert stats["torn_tail"] == 1
        assert stats["integrity"] == "corrupt"    # damage beats recovery
        assert journal.result("a") == "v2"
        assert journal.result("b") == [3]
        assert journal.result("d") is None and journal.is_done("d")
        # appending after recovery keeps the file well-formed
        journal.record("e", 5)
        reloaded = SweepJournal(path)
        assert reloaded.result("e") == 5
        assert reloaded.journal_stats()["torn_tail"] == 0
