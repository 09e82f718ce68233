"""Smoke tests: every example script runs end to end.

Each example is executed in-process (importing its ``main``) so failures
surface with real tracebacks and coverage is attributed.  The slowest
example (planar_scattered) is included because its runtime is dominated
by a one-off staged construction, still well under a minute.
"""

import importlib.util
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")

EXAMPLES = [
    "quickstart",
    "query_rewriting",
    "datalog_boundedness",
    "planar_scattered",
    "pebble_games_csp",
    "preservation_landscape",
    "data_exchange",
]


def _load(name):
    path = os.path.join(EXAMPLES_DIR, f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = _load(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"{name} produced no output"


def test_quickstart_mentions_all_sections(capsys):
    module = _load("quickstart")
    module.main()
    out = capsys.readouterr().out
    for heading in ("structures", "homomorphisms", "cores",
                    "Chandra-Merlin", "SPJU", "Datalog"):
        assert heading in out


def test_rewriting_example_rejects_unpreserved(capsys):
    module = _load("query_rewriting")
    module.main()
    out = capsys.readouterr().out
    assert "NOT preserved" in out
    assert "UNION" in out or "<-" in out
