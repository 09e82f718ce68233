"""The library reads no environment variables.

The engine has one configuration surface: the :class:`HomEngine`
keywords and the CLI flags built on them.  An environment switch
duplicates that surface and doubles the configurations every test and
benchmark must cover, so this test walks the AST of every module under
``src/repro`` and fails on any read of ``os.environ`` or call of
``os.getenv``.
"""

import ast
import pathlib

import pytest

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree):
    """``(line, text)`` of every environment access in ``tree``."""
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT
        ):
            yield node.lineno, f"os.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT:
                    yield node.lineno, f"from os import {alias.name}"


@pytest.mark.parametrize(
    "source",
    [
        "import os\nflag = os.environ.get('X')\n",
        "import os\nflag = os.getenv('X')\n",
        "from os import environ\n",
    ],
)
def test_guard_catches_each_form(source):
    assert list(environment_reads(ast.parse(source)))


def test_library_reads_no_environment():
    assert PACKAGE / "engine" / "engine.py" in MODULES
    found = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {text}"
        for path in MODULES
        for line, text in environment_reads(ast.parse(path.read_text()))
    ]
    assert not found, "environment reads in src/repro:\n" + "\n".join(found)
