"""The engine memo is the only place a hom answer is memoized.

Every structure-keyed cache is a :class:`~repro.engine.cache.VerifiedLRU`,
and three are allowed: the engine memo (:class:`~repro.engine.cache.
HomCache`), the compiled targets (:class:`~repro.kernel.compile.
CompiledTargetCache`) and the serve warm-session table (built in
:class:`~repro.serve.service.DecisionService`).  This test walks the
AST of every module under ``src/repro`` and fails on any other class
that subclasses ``VerifiedLRU`` and any other scope that calls it, so a
second answer memo cannot grow back beside the engine's.  Strings do
not count.
"""

import ast
import pathlib

import pytest

import repro

PACKAGE = pathlib.Path(repro.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))
NAME = "VerifiedLRU"

#: (module, enclosing scope) of every allowed subclass or construction.
ALLOWED = {
    ("repro/engine/cache.py", "HomCache"),
    ("repro/kernel/compile.py", "CompiledTargetCache"),
    ("repro/serve/service.py", "DecisionService.__init__"),
}


def _names(expr):
    return (isinstance(expr, ast.Name) and expr.id == NAME
            or isinstance(expr, ast.Attribute) and expr.attr == NAME)


def builders(tree):
    """(line, scope) of every class in ``tree`` that subclasses
    ``VerifiedLRU`` (scope: the class) and every call of it (scope: the
    enclosing class and function names, dotted)."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                inner = scope + (child.name,)
                if any(map(_names, child.bases)):
                    found.append((child.lineno, ".".join(inner)))
                walk(child, inner)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
            else:
                if isinstance(child, ast.Call) and _names(child.func):
                    found.append((child.lineno, ".".join(scope)))
                walk(child, scope)

    walk(tree, ())
    return found


@pytest.mark.parametrize(
    "source, scope",
    [
        ("class Memo(VerifiedLRU):\n    pass\n", "Memo"),
        ("class Memo(cache.VerifiedLRU):\n    pass\n", "Memo"),
        ("def f():\n    return VerifiedLRU(8)\n", "f"),
        ("class S:\n    def __init__(self):\n"
         "        self.m = cache.VerifiedLRU(8)\n", "S.__init__"),
        ("memo = VerifiedLRU(8)\n", ""),
    ],
)
def test_guard_catches_each_form(source, scope):
    assert [s for _, s in builders(ast.parse(source))] == [scope]


def test_guard_ignores_strings_and_imports():
    tree = ast.parse('"""VerifiedLRU(8)"""\n'
                     "from repro.engine.cache import VerifiedLRU\n")
    assert not builders(tree)


def test_only_the_allowed_caches_build_a_verified_lru():
    found = {
        (path.relative_to(PACKAGE.parent).as_posix(), scope): line
        for path in MODULES
        for line, scope in builders(ast.parse(path.read_text()))
    }
    assert set(found) == ALLOWED, (
        "VerifiedLRU built outside the allowed caches:\n"
        + "\n".join(f"{module}:{found[module, scope]} ({scope})"
                    for module, scope in sorted(set(found) - ALLOWED))
    )
