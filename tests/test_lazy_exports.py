"""Lazy package exports: the public surface and the import budget.

Every check runs in a fresh interpreter, so no module an earlier test
imported can make a lazy name resolve (or an import budget hold) by
accident.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = [
    "repro",
    "repro.core",
    "repro.cq",
    "repro.dataexchange",
    "repro.datalog",
    "repro.distributed",
    "repro.engine",
    "repro.graphtheory",
    "repro.homomorphism",
    "repro.incremental",
    "repro.kernel",
    "repro.logic",
    "repro.parallel",
    "repro.pebble",
    "repro.resources",
    "repro.serve",
    "repro.structures",
]

#: Layers a cold engine call must never import.
PAPER_LAYERS = (
    "repro.core", "repro.cq", "repro.logic", "repro.datalog",
    "repro.pebble", "repro.dataexchange", "repro.serve",
    "repro.distributed",
)


def run_fresh(code: str, *args: str):
    """Run ``code`` with ``args`` in a new interpreter; return the JSON
    it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Public surface
# ----------------------------------------------------------------------
SURFACE_CHECK = """
    import importlib, json, sys
    package = importlib.import_module(sys.argv[1])
    exported = list(package.__all__)
    table = {
        attr: module
        for module, attrs in getattr(package, "_EXPORTS", {}).items()
        for attr in attrs
    }
    problems = []
    for attr in exported:
        try:
            value = getattr(package, attr)
        except AttributeError as err:
            problems.append(f"getattr {attr}: {err}")
            continue
        if attr in table:
            home = importlib.import_module(f"{package.__name__}.{table[attr]}")
        elif type(value) is type(sys):
            home = package  # a subpackage of repro
        elif attr == "__version__":
            continue
        else:  # bound eagerly in the __init__
            home = sys.modules[value.__module__]
            if not home.__name__.startswith(package.__name__ + "."):
                problems.append(f"{attr} defined outside the package")
        if getattr(home, attr) is not value:
            problems.append(f"{attr} is not {home.__name__}.{attr}")
    star = {}
    exec(f"from {package.__name__} import *", star)
    problems += [f"star import lacks {a}" for a in exported if a not in star]
    problems += [f"star import: {a} differs" for a in exported
                 if a in star and star[a] is not getattr(package, a)]
    problems += [f"dir lacks {a}" for a in exported if a not in dir(package)]
    problems += [f"{a} lazily exported but not in __all__"
                 for a in table if a not in exported]
    print(json.dumps(problems))
"""


@pytest.mark.parametrize("name", PACKAGES)
def test_public_surface(name):
    """Each ``__all__`` name resolves through ``getattr`` and ``from pkg
    import *``, is the object its defining submodule holds, and is in
    ``dir(pkg)``."""
    assert run_fresh(SURFACE_CHECK, name) == []


@pytest.mark.parametrize("package, attr", [
    ("repro.graphtheory", "nice_decomposition"),
    ("repro.dataexchange", "chase"),
])
@pytest.mark.parametrize("submodule_first", [False, True])
def test_function_named_like_its_submodule_stays_a_function(
    package, attr, submodule_first
):
    """Importing the submodule of the same name, before or after the
    package attribute is read, never turns the attribute into the
    module."""
    first = f"import {package}.{attr}" if submodule_first else ""
    result = run_fresh(f"""
        import json, types
        {first}
        import {package} as package
        before = package.{attr}
        import {package}.{attr}
        import repro.kernel.dp  # imports the nice_decomposition submodule
        after = package.{attr}
        print(json.dumps([
            isinstance(before, types.FunctionType),
            after is before,
            after.__module__,
        ]))
    """)
    assert result == [True, True, f"{package}.{attr}"]


def test_unknown_attribute_raises_attribute_error():
    result = run_fresh("""
        import json
        import repro.structures as structures
        print(json.dumps([
            hasattr(structures, "no_such_name"),
            hasattr(structures, "__no_such_dunder__"),
            hasattr(structures, "io"),
        ]))
    """)
    assert result == [False, False, True]


# ----------------------------------------------------------------------
# Import budget
# ----------------------------------------------------------------------
def test_import_repro_loads_no_subpackage():
    loaded = run_fresh("""
        import json, sys
        import repro
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("repro"))))
    """)
    assert loaded == ["repro", "repro._lazy", "repro.exceptions"]


def test_cold_engine_call_loads_no_paper_layer():
    result = run_fresh("""
        import json, sys
        from repro.engine import HomEngine
        from repro.structures import clique_structure, undirected_cycle
        witness = HomEngine().find_homomorphism(
            undirected_cycle(12), clique_structure(2)
        )
        print(json.dumps([witness is not None,
                          sorted(m for m in sys.modules
                                 if m.startswith("repro"))]))
    """)
    found, loaded = result
    assert found
    assert "repro.kernel.solver" in loaded
    assert [m for m in loaded if m.startswith(PAPER_LAYERS)] == []


def test_cli_hom_loads_no_paper_layer(tmp_path):
    source, target = tmp_path / "c12.json", tmp_path / "k2.json"
    result = run_fresh(f"""
        import contextlib, io, json, sys
        from repro.structures import (
            clique_structure, save_structure, undirected_cycle,
        )
        save_structure(undirected_cycle(12), {str(source)!r})
        save_structure(clique_structure(2), {str(target)!r})
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["hom", {str(source)!r}, {str(target)!r}])
        print(json.dumps([code, sorted(m for m in sys.modules
                                       if m.startswith("repro"))]))
    """)
    code, loaded = result
    assert code == 0
    assert [m for m in loaded if m.startswith(PAPER_LAYERS)] == []


def test_decision_service_imports_its_ops_at_construction():
    """After construction, no request of any op imports a module: serve
    pays for them before its ready line."""
    result = run_fresh("""
        import json, sys
        from repro.serve.service import DecisionService
        from repro.structures import (
            clique_structure, structure_to_dict, undirected_cycle,
        )
        c5 = structure_to_dict(undirected_cycle(5))
        k3 = structure_to_dict(clique_structure(3))
        service = DecisionService()
        built = set(sys.modules)
        queries = [
            {"op": "hom", "source": c5, "target": k3},
            {"op": "containment", "q1": k3, "q2": c5},
            {"op": "equivalence", "q1": k3, "q2": c5},
            {"op": "core", "structure": c5},
            {"op": "treewidth", "structure": c5},
            {"op": "treewidth", "structure": c5, "exact": True},
            {"op": "hom", "source": c5, "target": k3, "session": "s"},
            {"op": "edit", "session": "s", "side": "source",
             "delta": {"add_facts": [["E", [0, 2]]]}},
        ]
        statuses = [service.execute(q)["status"] for q in queries]
        print(json.dumps([
            statuses,
            sorted(m for m in built if m.startswith("repro")),
            sorted(m for m in set(sys.modules) - built
                   if m.startswith("repro")),
        ]))
    """)
    statuses, built, imported_by_requests = result
    assert statuses == ["ok"] * 8
    for module in ("repro.kernel.solver",           # hom, containment
                   "repro.resources.verdict",
                   "repro.homomorphism.cores",      # core
                   "repro.graphtheory.treewidth",   # treewidth
                   "repro.incremental.warm"):       # warm sessions
        assert module in built
    assert imported_by_requests == []


#: Each engine path that keys on fingerprints, run in a fresh process;
#: the last expression must be true when the path did what it names.
HASH_FREE_PATHS = {
    "cold-dp": """
        from repro.engine import HomEngine
        from repro.structures import clique_structure, undirected_cycle
        engine = HomEngine()
        refuted = engine.find_homomorphism(
            undirected_cycle(31), clique_structure(2)) is None
        ok = refuted and engine.stats.dp_solves == 1
    """,
    "cold-search": """
        from repro.engine import HomEngine
        from repro.structures import clique_structure, undirected_cycle
        engine = HomEngine(use_dp=False)
        ok = engine.find_homomorphism(
            undirected_cycle(12), clique_structure(2)) is not None
    """,
    "warm-hit": """
        from repro.engine import HomEngine
        from repro.structures import clique_structure, grid_structure
        engine = HomEngine()
        engine.find_homomorphism(grid_structure(4, 4), clique_structure(3))
        engine.find_homomorphism(grid_structure(4, 4), clique_structure(3))
        ok = engine.stats.cache_hits == 1
    """,
    "edit": """
        from repro.incremental.delta import Delta, apply_delta
        from repro.structures import undirected_cycle
        edited, record = apply_delta(
            undirected_cycle(40), Delta(add_facts=(("E", (0, 2)),)))
        edited, record = apply_delta(
            edited, Delta(remove_facts=(("E", (0, 2)),)))
        ok = record.incremental and edited == undirected_cycle(40)
    """,
}


@pytest.mark.parametrize("path", sorted(HASH_FREE_PATHS))
def test_fingerprint_paths_load_no_hashlib(path):
    """Fingerprints are ints hashed by ``hash()``: no engine path loads
    ``hashlib`` or OpenSSL's ``_hashlib`` (≈3.6 MB of RSS)."""
    result = run_fresh(HASH_FREE_PATHS[path] + """
        import json, sys
        print(json.dumps([ok, sorted(m for m in ("hashlib", "_hashlib")
                                     if m in sys.modules)]))
    """)
    assert result == [True, []]
