"""Property tests for the canonical structure fingerprint.

The fingerprint must be order- and label-invariant (isomorphic
structures hash equal), sensitive to the fact set (one fact more or
less changes it), and its on-instance cache must be invalidated by the
mutating operations (which return fresh instances with an empty slot).
"""

import json
import os
import random
import subprocess
import sys

import pytest

import repro

from repro.engine import structure_fingerprint
from repro.structures import (
    Structure,
    Vocabulary,
    directed_cycle,
    random_directed_graph,
    random_structure,
)

GRAPH = Vocabulary({"E": 2})


def _permuted(structure, seed):
    """An isomorphic copy under a random universe permutation.

    Images are fresh labels (tuples), so this exercises label- as well
    as order-invariance.
    """
    rng = random.Random(seed)
    targets = [("v", i) for i in range(structure.size())]
    rng.shuffle(targets)
    mapping = dict(zip(structure.universe, targets))
    return structure.rename(mapping)


@pytest.mark.parametrize("seed", range(25))
def test_isomorphic_structures_hash_equal(seed):
    s = random_directed_graph(5, 0.35, seed=seed)
    assert _permuted(s, seed).fingerprint() == s.fingerprint()


@pytest.mark.parametrize("seed", range(10))
def test_isomorphic_richer_vocabulary(seed):
    vocab = Vocabulary({"E": 2, "P": 1, "T": 3})
    s = random_structure(vocab, 4, 0.3, seed=seed)
    assert _permuted(s, seed).fingerprint() == s.fingerprint()


@pytest.mark.parametrize("seed", range(25))
def test_one_fact_difference_changes_fingerprint(seed):
    s = random_directed_graph(5, 0.35, seed=seed)
    facts = list(s.facts())
    if facts:
        name, tup = facts[seed % len(facts)]
        assert s.without_fact(name, tup).fingerprint() != s.fingerprint()
    missing = [
        (i, j)
        for i in range(5)
        for j in range(5)
        if i != j and not s.has_fact("E", (i, j))
    ]
    if missing:
        extra = missing[seed % len(missing)]
        assert s.with_fact("E", extra).fingerprint() != s.fingerprint()


def test_isolated_element_changes_fingerprint():
    c3 = directed_cycle(3)
    assert c3.with_element(99).fingerprint() != c3.fingerprint()


def test_vocabulary_enters_the_fingerprint():
    a = Structure(Vocabulary({"E": 2}), [0, 1], {"E": [(0, 1)]})
    b = Structure(Vocabulary({"R": 2}), [0, 1], {"R": [(0, 1)]})
    assert a.fingerprint() != b.fingerprint()


def test_constants_enter_the_fingerprint():
    vocab = Vocabulary({"E": 2}, ["c"])
    path = [(0, 1), (1, 2)]
    start = Structure(vocab, [0, 1, 2], {"E": path}, {"c": 0})
    middle = Structure(vocab, [0, 1, 2], {"E": path}, {"c": 1})
    assert start.fingerprint() != middle.fingerprint()


def test_mutation_invalidates_cached_fingerprint():
    s = directed_cycle(4)
    original = s.fingerprint()
    assert s._fingerprint == original  # cached on the instance
    mutated = s.with_fact("E", (0, 2))
    assert mutated._fingerprint is None  # fresh instance: empty cache slot
    assert mutated.fingerprint() != original
    # the original instance's cached digest is untouched and still valid
    assert s.fingerprint() == original == structure_fingerprint(s)


def test_fingerprint_is_deterministic_and_cached():
    s = random_directed_graph(6, 0.4, seed=3)
    first = s.fingerprint()
    assert s.fingerprint() == first
    rebuilt = random_directed_graph(6, 0.4, seed=3)
    assert rebuilt.fingerprint() == first
    assert structure_fingerprint(rebuilt) == first


def test_fact_listing_order_is_irrelevant():
    edges = [(0, 1), (1, 2), (2, 0)]
    a = Structure(GRAPH, [0, 1, 2], {"E": edges})
    b = Structure(GRAPH, [2, 1, 0], {"E": list(reversed(edges))})
    assert a.fingerprint() == b.fingerprint()


#: Structures whose digests must not depend on the process: string
#: elements, constants, a ternary relation with repeated elements and
#: an isolated element, since ``str`` hashes are salted per process.
FINGERPRINT_PROCESS = """
import json
from repro.structures import (
    Structure, Vocabulary, grid_structure, random_structure,
    undirected_cycle,
)
vocab = Vocabulary({"E": 2, "T": 3}, ["c", "d"])
named = Structure(
    vocab, ["a", "b", "c", "lonely"],
    {"E": [("a", "b"), ("b", "c")], "T": [("a", "a", "c"), ("c", "b", "a")]},
    {"c": "a", "d": "c"},
)
structures = [
    named,
    undirected_cycle(9),
    grid_structure(3, 4),
    random_structure(Vocabulary({"E": 2, "P": 1, "T": 3}), 6, 0.3, seed=4),
]
print(json.dumps([s.fingerprint() for s in structures]))
"""


def _fingerprints_with_hash_seed(seed):
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    done = subprocess.run(
        [sys.executable, "-c", FINGERPRINT_PROCESS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_fingerprint_is_the_same_in_every_process():
    """Digests never hash a salted ``str``: two processes with different
    ``PYTHONHASHSEED`` values agree on every structure."""
    first = _fingerprints_with_hash_seed("1")
    second = _fingerprints_with_hash_seed("2024")
    assert first == second
    assert len(set(first)) == len(first)
    assert all(len(fp) == 32 and int(fp, 16) >= 0 for fp in first)
