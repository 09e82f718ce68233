"""Benchmark scripts and result files that the docs and CI name exist.

Two checks keep the benchmark references honest when a bench mode or a
``BENCH_*.json`` is retired:

* every ``benchmarks/...py`` path, every bare ``bench_*.py`` script
  name and every ``BENCH_*.json`` named in the CI workflow, the README,
  DESIGN.md and the verify recipe exists (a result file under
  ``benchmarks/results/`` or ``benchmarks/layers/results/``);
* every committed ``benchmarks/results/BENCH_*.json`` has a writer — a
  script that calls ``write_bench_json("<name>", ...)`` — and that
  script names the file, so its docstring or help says where the
  numbers come from.
"""

import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARKS = ROOT / "benchmarks"
RESULT_DIRS = (BENCHMARKS / "results", BENCHMARKS / "layers" / "results")
DOCS = (
    ".github/workflows/ci.yml",
    "README.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
)

SCRIPT_PATH = re.compile(r"\bbenchmarks/[\w/]+\.py\b")
SCRIPT_NAME = re.compile(r"(?<![\w/])bench_\w+\.py\b")
RESULT_NAME = re.compile(r"\bBENCH_\w+\.json\b")
WRITE_CALL = re.compile(r"write_bench_json\(\s*[\"'](\w+)[\"']")

#: Committed result files that are copies of another script's output:
#: the layered benchmark's smoke baseline is one ``run.py --smoke``
#: result, which that script writes as ``BENCH_layers.json``.
COPIES = {
    "BENCH_layers_smoke.json": ("benchmarks/layers/run.py",
                                "BENCH_layers.json"),
}


def _writers():
    """Result file name -> (writing script, the name the script uses)."""
    writers = dict(COPIES)
    for script in sorted(BENCHMARKS.glob("*.py")):
        for name in WRITE_CALL.findall(script.read_text(encoding="utf-8")):
            file_name = f"BENCH_{name}.json"
            writers[file_name] = (
                script.relative_to(ROOT).as_posix(), file_name,
            )
    return writers


@pytest.mark.parametrize("doc", DOCS)
def test_named_benchmark_files_exist(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    missing = [
        path for path in SCRIPT_PATH.findall(text)
        if not (ROOT / path).is_file()
    ]
    missing += [
        name for name in SCRIPT_NAME.findall(text)
        if not (BENCHMARKS / name).is_file()
    ]
    missing += [
        name for name in RESULT_NAME.findall(text)
        if not any((folder / name).is_file() for folder in RESULT_DIRS)
    ]
    assert not missing, f"{doc} names files that do not exist: {missing}"


def test_every_committed_result_is_named_by_its_writer():
    writers = _writers()
    committed = sorted(
        path.name for path in (BENCHMARKS / "results").glob("BENCH_*.json")
    )
    assert committed
    orphans = [name for name in committed if name not in writers]
    assert not orphans, f"no script writes {orphans}"
    unnamed = []
    for name in committed:
        script, written_as = writers[name]
        source = ROOT / script
        if (not source.is_file()
                or written_as not in source.read_text(encoding="utf-8")):
            unnamed.append((name, script))
    assert not unnamed, f"writers that do not name their file: {unnamed}"
