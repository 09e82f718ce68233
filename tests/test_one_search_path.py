"""Production code asks hom questions through the engine.

:class:`~repro.engine.engine.HomEngine` is the one place that picks a
solver: :meth:`~repro.engine.engine.HomEngine.search` hands out a plain
search on the solver ``use_kernel`` selects, and every memoized query
goes through it or through the DP and batch routes.  The reference
:class:`~repro.homomorphism.search.HomomorphismSearch` is reached only
through ``HomEngine(use_kernel=False)`` and the tests.  This test walks
the AST of every module under ``src/repro`` and fails on any name,
attribute or import of ``HomomorphismSearch`` outside the module that
defines it and the engine.  Strings do not count: the lazy export table
of :mod:`repro.homomorphism` keeps the class importable by name, and
docstrings may cite it.
"""

import ast
import pathlib

import pytest

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
ALLOWED = {
    PACKAGE / "homomorphism" / "search.py",
    PACKAGE / "engine" / "engine.py",
}
NAME = "HomomorphismSearch"


def uses(tree):
    """Line numbers of every name, attribute or import of
    ``HomomorphismSearch`` in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Name) and node.id == NAME
            or isinstance(node, ast.Attribute) and node.attr == NAME
            or isinstance(node, (ast.Import, ast.ImportFrom))
            and any(alias.name.split(".")[-1] == NAME for alias in node.names)
        ):
            yield node.lineno


@pytest.mark.parametrize(
    "source",
    [
        "from repro.homomorphism.search import HomomorphismSearch\n",
        "from repro.homomorphism import HomomorphismSearch as S\n",
        "import repro.homomorphism.search as s\ns.HomomorphismSearch(a, b)\n",
        "HomomorphismSearch(a, b).first()\n",
    ],
)
def test_guard_catches_each_form(source):
    assert list(uses(ast.parse(source)))


def test_guard_ignores_strings():
    assert not list(uses(ast.parse('"""HomomorphismSearch"""\n')))


def test_only_the_engine_builds_the_reference_solver():
    assert ALLOWED <= set(MODULES)
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}"
        for path in MODULES
        if path not in ALLOWED
        for line in uses(ast.parse(path.read_text()))
    ]
    assert not found, (
        "HomomorphismSearch named outside the engine:\n" + "\n".join(found)
    )
