"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.structures import (
    directed_cycle,
    directed_path,
    load_structure,
    save_structure,
    single_loop,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, s in (("p4", directed_path(4)), ("c3", directed_cycle(3)),
                    ("loop", single_loop())):
        path = str(tmp_path / f"{name}.json")
        save_structure(s, path)
        paths[name] = path
    return paths


class TestHom:
    def test_found(self, files, capsys):
        assert main(["hom", files["p4"], files["c3"]]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)

    def test_not_found(self, files, capsys):
        assert main(["hom", files["c3"], files["p4"]]) == 1
        assert "no homomorphism" in capsys.readouterr().out


class TestCore:
    def test_report(self, files, capsys):
        assert main(["core", files["c3"]]) == 0
        out = capsys.readouterr().out
        assert "core:      3 elements" in out

    def test_output_file(self, files, tmp_path, capsys):
        out_path = str(tmp_path / "core.json")
        assert main(["core", files["p4"], "--output", out_path]) == 0
        core = load_structure(out_path)
        assert core.size() <= 4


class TestTreewidth:
    def test_cycle(self, files, capsys):
        assert main(["treewidth", files["c3"]]) == 0
        assert "treewidth: 2" in capsys.readouterr().out


class TestCheck:
    def test_pebble_game(self, files, capsys):
        assert main(["check", files["c3"], files["p4"], "--pebbles", "2"]) == 1
        assert "False" in capsys.readouterr().out
        assert main(["check", files["p4"], files["c3"], "--pebbles", "2"]) == 0


class TestChandraMerlin:
    def test_agreement(self, files, capsys):
        assert main(["chandra-merlin", files["p4"], files["c3"]]) == 0
        out = capsys.readouterr().out
        assert out.count("True") == 3


class TestRewrite:
    def test_mutual_edge(self, capsys):
        code = main([
            "rewrite", "exists x y. E(x,y) & E(y,x)",
            "--relations", "E:2", "--max-size", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "minimal models" in out

    def test_bad_relations_spec(self):
        with pytest.raises(SystemExit):
            main(["rewrite", "exists x. E(x,x)", "--relations", "E"])


class TestDatalog:
    def test_transitive_closure(self, files, tmp_path, capsys):
        program = tmp_path / "tc.dl"
        program.write_text(
            "T(x, y) <- E(x, y).\nT(x, y) <- E(x, z), T(z, y).\n"
        )
        assert main(["datalog", str(program), files["p4"],
                     "--query", "T"]) == 0
        out = capsys.readouterr().out
        assert "6 tuples" in out


class TestErrorPaths:
    def test_datalog_default_predicate(self, files, tmp_path, capsys):
        program = tmp_path / "tc.dl"
        program.write_text("T(x, y) <- E(x, y).\n")
        assert main(["datalog", str(program), files["p4"]]) == 0
        assert "T:" in capsys.readouterr().out

    def test_rewrite_parse_error_propagates(self):
        from repro.exceptions import ReproError

        with pytest.raises(ReproError):
            main(["rewrite", "exists x. E(x", "--relations", "E:2"])

    def test_treewidth_limit_flag(self, files, capsys):
        assert main(["treewidth", files["loop"], "--limit", "10"]) == 0
        assert "treewidth: 0" in capsys.readouterr().out


class TestStats:
    def _fresh(self):
        from repro.engine import reset_engine

        reset_engine()

    def test_stats_after_repeated_pair(self, files, capsys):
        self._fresh()
        try:
            assert main(["stats", "--pair", files["p4"], files["c3"],
                         "--repeat", "5"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["cache_enabled"] is True
            assert data["solver"]["calls"] >= 5
            assert data["solver"]["cache_hits"] >= 4
            assert data["cache"]["hit_rate"] > 0
        finally:
            self._fresh()

    def test_stats_no_cache(self, files, capsys):
        try:
            assert main(["stats", "--no-cache", "--pair", files["c3"],
                         files["p4"], "--repeat", "3"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["cache_enabled"] is False
            assert data["solver"]["cache_hits"] == 0
            assert data["solver"]["solves"] == 3
        finally:
            self._fresh()

    def test_stats_bare(self, capsys):
        self._fresh()
        try:
            assert main(["stats"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["solver"]["calls"] == 0
        finally:
            self._fresh()

    def test_stats_reset_zeroes_compiled_cache_counters(
        self, files, capsys
    ):
        self._fresh()
        try:
            # warm the engine (and the compiled-target cache counters)
            assert main(["stats", "--pair", files["p4"], files["c3"],
                         "--repeat", "2"]) == 0
            data = json.loads(capsys.readouterr().out)
            warmed = data["compiled_targets"]
            assert warmed["hits"] + warmed["misses"] > 0
            # --reset zeroes everything before the (fresh) run
            assert main(["stats", "--reset"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["solver"]["calls"] == 0
            assert data["compiled_targets"]["hits"] == 0
            assert data["compiled_targets"]["misses"] == 0
            # --reset composes with --pair: counters reflect only the
            # post-reset queries
            assert main(["stats", "--reset", "--pair", files["p4"],
                         files["c3"], "--repeat", "3"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["solver"]["calls"] == 3
        finally:
            self._fresh()

    def test_stats_journal_health(self, tmp_path, capsys):
        from repro.resources import SweepJournal

        journal = tmp_path / "j.jsonl"
        SweepJournal(str(journal)).record("a", 1)
        self._fresh()
        try:
            assert main(["stats", "--journal", str(journal)]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["journal"]["records"] == 1
            assert data["journal"]["integrity"] == "ok"
        finally:
            self._fresh()

    def test_stats_journal_is_read_only(self, tmp_path, capsys):
        """Reporting never repairs: a torn tail stays on disk (a live
        writer may still be appending) and is reported as recovered."""
        from repro.resources import SweepJournal

        journal = tmp_path / "j.jsonl"
        SweepJournal(str(journal)).record("a", 1)
        with open(journal, "a", encoding="utf-8") as handle:
            handle.write('{"v": 2, "crc": "torn')
        before = journal.read_bytes()
        self._fresh()
        try:
            assert main(["stats", "--journal", str(journal)]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["journal"]["torn_tail"] == 1
            assert data["journal"]["integrity"] == "recovered"
            assert data["journal"]["records"] == 1
            assert journal.read_bytes() == before
        finally:
            self._fresh()


class TestSweep:
    def test_sweep_only_filter_with_journal(self, tmp_path, capsys):
        journal = tmp_path / "sweep.jsonl"
        assert main(["sweep", "cores", "--only", "rigid-cycle",
                     "--journal", str(journal), "--retries", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["instances"] == 3
        assert all(key.startswith("rigid-cycle") for key in data["results"])
        assert data["journal"]["integrity"] == "ok"
        # rerun resumes everything from the journal
        assert main(["sweep", "cores", "--only", "rigid-cycle",
                     "--journal", str(journal)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["resumed"] == 3 and data["computed"] == 0

    def test_sweep_only_filter_rejects_no_match(self, capsys):
        # a structured error, not a traceback: exit 2 with the valid
        # instance names listed on stderr
        assert main(["sweep", "cores", "--only", "no-such-instance"]) == 2
        err = capsys.readouterr().err
        assert "no-such-instance" in err
        assert "rigid-cycle-5" in err

    def test_unknown_instance_error_carries_structure(self):
        from repro.exceptions import UnknownInstanceError, ValidationError

        err = UnknownInstanceError("nope", ["b", "a"])
        assert isinstance(err, ValidationError)
        assert err.requested == "nope"
        assert err.valid == ["a", "b"]
        assert "nope" in str(err) and "a, b" in str(err)

    def test_hom_batch_sweep_runs(self, capsys):
        from repro.engine import reset_engine

        reset_engine()
        try:
            assert main(["sweep", "hom-batch",
                         "--only", "k2-colorability"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["instances"] == 1
            record = data["results"]["k2-colorability"]["result"]
            # odd cycles are not 2-colorable: all five queries refuted
            assert record["queries"] == 5 and record["found"] == 0
            assert record["verdicts"] == ["FALSE"] * 5
        finally:
            # don't leave the global engine's memo cache warm with
            # odd-cycle answers: later forked sweep workers would
            # inherit it and short-circuit governor tests
            reset_engine()


class TestProcessState:
    """``main`` leaves an in-process host as it found it."""

    def test_sweep_and_stats_restore_handlers_and_engine(self, capsys):
        import signal

        from repro.engine import get_engine

        handlers = (signal.getsignal(signal.SIGTERM),
                    signal.getsignal(signal.SIGINT))
        engine = get_engine()
        assert main(["sweep", "cores", "--only", "rigid-cycle",
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["stats", "--no-kernel"]) == 0
        assert json.loads(capsys.readouterr().out)["kernel_enabled"] is False
        assert (signal.getsignal(signal.SIGTERM),
                signal.getsignal(signal.SIGINT)) == handlers
        assert get_engine() is engine and engine.use_kernel
