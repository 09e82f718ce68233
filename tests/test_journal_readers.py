"""Every reader of a sweep journal agrees on one corpus of raw files.

A journal file is read in four places: :class:`SweepJournal` on load,
its fenced subclass :class:`FencedShardJournal`, the read-only shard
scan behind ``repro merge-journals``, and ``repro stats --journal``.
Each corpus file below is built from raw bytes and handed to every
reader on a fresh copy.  Their outputs are compared with
``journal_corpus_expected.json``, which was recorded from the readers
when each still parsed the file on its own; the shared scan must
reproduce every count, verdict, result and exit code.  Do not
re-record the file to make a change pass.
"""

import contextlib
import io
import json
import os

import pytest

from repro.cli import main
from repro.distributed import (
    FencedShardJournal,
    merge_journals,
    scan_shard_journal,
)
from repro.resources import SweepJournal
from repro.resources.checkpointing import _journal_line

EXPECTED_PATH = os.path.join(
    os.path.dirname(__file__), "journal_corpus_expected.json"
)


def _v2(key, result, **stamp):
    return (_journal_line({"key": key, "result": result, **stamp})
            + "\n").encode("utf-8")


def _v1(key, result):
    return (json.dumps({"key": key, "result": result}) + "\n").encode()


A = _v2("a", 1)
B = _v2("b", 2)
BAD_CRC = json.dumps(
    {"v": 2, "crc": "00000000", "entry": {"key": "b", "result": 2}}
).encode() + b"\n"

#: name -> file bytes (``None``: no file at all).
CORPUS = {
    "missing": None,
    "empty": b"",
    "blank-lines": A + b"\n   \n\t\n\xc2\xa0\n" + B + b"\n",
    "crlf": A.replace(b"\n", b"\r\n") + B,
    "v1-legacy": _v1("a", 1) + B + _v1("a", 3),
    "v1-only": _v1("a", 1) + _v1("b", {"status": "ok"}),
    "bad-crc": A + BAD_CRC,
    "non-dict": (
        b'[1, 2]\n"text"\n42\nnull\n' + A
        + b'{"crc": "00000000", "entry": 5}\n'
        + b'{"crc": "00000000", "entry": {"result": 1}}\n'
        + b'{"v": 2}\n{not json\n'
    ),
    "invalid-utf8": (
        A + b"\xff\xfe\n" + b'{"key": "\xff\xfe", "result": 1}\n' + B
    ),
    "invalid-utf8-torn": A + b"\xff\xfe\n" + b'{"crc": "torn',
    "duplicate-keys": _v2("a", 1) + _v2("a", 2) + B + _v2("a", 4),
    "fence-low-then-high": (
        _v2("x", "old", fence=1, owner="r1")
        + _v2("x", "new", fence=2, owner="r2")
    ),
    "fence-high-then-low": (
        _v2("x", "new", fence=2, owner="r2")
        + _v2("x", "old", fence=1, owner="r1")
    ),
    "fence-equal": (
        _v2("x", "first", fence=2, owner="r2")
        + _v2("x", "second", fence=2, owner="r2")
        + _v2("y", "plain")
    ),
    "torn-tail": A + b'{"v": 2, "crc": "dead',
    "torn-valid-json": A + B.rstrip(b"\n"),
    "only-torn": b'{"v": 2',
    "whitespace-tail": A + b"   ",
}

#: The merged grid: some corpus keys, one key no file holds.
GRID = ["a", "b", "x", "y", "z"]


def _place(root, reader, name):
    """A fresh copy of corpus file ``name`` for one reader."""
    directory = os.path.join(str(root), reader)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{name}.jsonl")
    if CORPUS[name] is not None:
        with open(path, "wb") as handle:
            handle.write(CORPUS[name])
    return path


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _basename(stats):
    return {**stats, "path": os.path.basename(stats["path"])}


def _observe(root, name):
    """What every reader reports for corpus file ``name``."""
    plain = SweepJournal(_place(root, "plain", name))
    fenced = FencedShardJournal(
        _place(root, "fenced", name), fence=5, owner="me"
    )
    scan = scan_shard_journal(_place(root, "scan", name))
    report = merge_journals([_place(root, "merge", name)])
    code, _ = _cli(["merge-journals", _place(root, "cli", name)])
    observed = {
        "journal": _basename(plain.journal_stats()),
        "journal_results": {key: plain.result(key) for key in plain.keys()},
        "fenced": _basename(fenced.journal_stats()),
        "fenced_keys": {
            key: [fenced.result(key), list(fenced.key_fence(key))]
            for key in fenced.keys()
        },
        "scan": _basename(scan.stats()),
        "scan_records": scan.records,
        "merge": {
            **report.to_dict(),
            "shards": [_basename(s) for s in report.to_dict()["shards"]],
        },
        "merge_fences": {k: list(v) for k, v in report.fences.items()},
        "merge_exit": code,
    }
    return json.loads(json.dumps(observed))


def _observe_all(root):
    """All corpus files merged at once against :data:`GRID`."""
    paths = [_place(root, "all", name) for name in sorted(CORPUS)]
    report = merge_journals(paths, expected_keys=GRID)
    code, _ = _cli(["merge-journals", *paths])
    payload = report.to_dict()
    payload["shards"] = [_basename(s) for s in payload["shards"]]
    return json.loads(json.dumps({
        "merge": payload,
        "merge_fences": {k: list(v) for k, v in report.fences.items()},
        "merge_exit": code,
    }))


@pytest.fixture(scope="module")
def expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_corpus_and_expectations_cover_the_same_files(expected):
    assert sorted(expected["files"]) == sorted(CORPUS)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_reader_matches_the_recorded_outputs(tmp_path, expected, name):
    assert _observe(tmp_path, name) == expected["files"][name]


def test_merging_the_whole_corpus_matches_the_recorded_output(
    tmp_path, expected
):
    assert _observe_all(tmp_path) == expected["all"]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_stats_cli_reports_what_the_journal_reports(tmp_path, expected, name):
    """``repro stats --journal`` prints the same journal section a
    loaded :class:`SweepJournal` reports."""
    code, snapshot = _cli(
        ["stats", "--journal", _place(tmp_path, "stats", name)]
    )
    assert code == 0
    assert _basename(snapshot["journal"]) == expected["files"][name]["journal"]

