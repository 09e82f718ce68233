"""The oracle tier: every answer path on every seeded family, and the
paper's laws on top.

Every path of the :mod:`tests.oracle` registry runs on the seeded
random graph and coloured pairs (both ways), the chaos structure pool,
the paper's classes, sweep-spec pairs and closed-form pairs from the
layered benchmark; the kernel tiers add option modes and batches.  The
laws: cores of the paper's classes have their known size, are
hom-equivalent to the structure, idempotent and minimal (brute force);
Sagiv–Yannakakis; and verdicts move monotonically under hardening and
loosening edits.  Chandra–Merlin and transitivity of ``→`` run in
``tests/test_properties.py``.
"""

import itertools

import pytest

from repro.cq import canonical_query, ucq_is_contained_in
from repro.engine import HomEngine
from repro.homomorphism.cores import compute_core
from repro.structures import Structure

from . import oracle
from .oracle import (
    COLORED,
    GRAPH,
    Case,
    both_ways,
    check,
    closed_form_cases,
    core_size,
    expected,
    paper_classes,
    random_pair,
    spec_cases,
    structure_pool,
)

GRAPH_CASES = [both_ways(*random_pair(GRAPH, seed)) for seed in range(150)]
COLORED_CASES = [both_ways(*random_pair(COLORED, seed))
                 for seed in range(100)]


@pytest.mark.parametrize("seed", range(150))
def test_differential_graph_pairs(seed):
    for case in GRAPH_CASES[seed]:
        check(case)


@pytest.mark.parametrize("seed", range(100))
def test_differential_colored_pairs(seed):
    for case in COLORED_CASES[seed]:
        check(case)


def test_harness_covers_500_cases():
    """Every path but the spec-built sweep answers all 500 generated
    (pair, direction) cases, and every path answers every family case
    it supports, with all three judges in use."""
    cases = list(itertools.chain(*GRAPH_CASES, *COLORED_CASES))
    assert len(cases) == 500
    assert oracle.coverage(cases) == dict(
        {p.name: 500 for p in oracle.PATHS}, sweep=0
    )
    cases = [case for family in FAMILIES.values() for case in family]
    specs = len(FAMILIES["sweep-specs"]) + len(FAMILIES["closed-form"])
    assert oracle.coverage(cases) == dict(
        {p.name: len(cases) for p in oracle.PATHS}, sweep=specs
    )
    assert {case.judge for case in cases} == {"brute", "known", "reference"}


def test_cache_hits_occurred():
    """The memo path's repeats were served by the cache."""
    assert oracle.MEMO.cache.hits >= 500
    assert oracle.MEMO.stats.cache_hits == oracle.MEMO.cache.hits


def test_differential_empty_and_degenerate():
    empty = Structure(GRAPH, [])
    loopy = Structure(GRAPH, [0], {"E": [(0, 0)]})
    edge = Structure(GRAPH, [0, 1], {"E": [(0, 1)]})
    for a, b in itertools.product([empty, loopy, edge], repeat=2):
        check(Case(a, b))


POOL = structure_pool()
CLASSES = [s for group in paper_classes().values() for s, _ in group]

FAMILIES = {
    "pool": [Case(a, b) for a in POOL for b in POOL],
    "paper-classes": [Case(a, b) for a in CLASSES for b in CLASSES],
    "sweep-specs": spec_cases(),
    "closed-form": closed_form_cases(),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_path_agrees_with_the_oracle(family):
    for case in FAMILIES[family]:
        check(case)


# ----------------------------------------------------------------------
# Cores
# ----------------------------------------------------------------------
CLASS_MEMBERS = [
    pytest.param(structure, size, id=f"{name}-{k}")
    for name, group in paper_classes().items()
    for k, (structure, size) in enumerate(group)
]


@pytest.mark.parametrize("structure, size", CLASS_MEMBERS)
def test_core_laws(structure, size):
    core = HomEngine(cache_enabled=False).core(structure)
    assert core.size() == size == core_size(structure)
    assert core.is_substructure_of(structure)
    assert expected(Case(structure, core)).exists
    assert expected(Case(core, structure)).exists
    assert compute_core(core).size() == size  # idempotent
    assert Case(core, core).judge == "brute"
    assert core_size(core) == size  # minimal: no smaller endomorphic image


# ----------------------------------------------------------------------
# Sagiv–Yannakakis
# ----------------------------------------------------------------------
def test_sagiv_yannakakis():
    queries = [canonical_query(s) for s in POOL[::2]]
    contained = {
        (i, j): expected(Case(queries[j].canonical_structure(),
                              queries[i].canonical_structure())).exists
        for i in range(len(queries)) for j in range(len(queries))
    }
    unions = list(itertools.combinations(range(len(queries)), 2))
    for left, right in itertools.product(unions, repeat=2):
        assert ucq_is_contained_in(
            [queries[i] for i in left], [queries[j] for j in right]
        ) == all(any(contained[i, j] for j in right) for i in left)


# ----------------------------------------------------------------------
# Monotonicity under edits
# ----------------------------------------------------------------------
def _one_fact_edits(structure):
    """``(+1, edited)`` after adding an absent fact, ``(-1, edited)``
    after removing a present one."""
    facts = structure.relation("E")
    pairs = itertools.product(structure.universe, repeat=2)
    for sign, fact in ((1, next((t for t in pairs if t not in facts), None)),
                       (-1, min(facts, default=None))):
        if fact is not None:
            yield sign, Structure(GRAPH, structure.universe,
                                  {"E": facts ^ {fact}})


def test_verdicts_move_monotonically_under_edits():
    """More source facts or fewer target facts can only take TRUE to
    FALSE; the opposite edits can only take FALSE to TRUE."""
    engine = oracle.MEMO
    for a, b in itertools.product(POOL, repeat=2):
        before = engine.exists_homomorphism(a, b)
        for sign, edited in _one_fact_edits(a):
            after = engine.exists_homomorphism(edited, b)
            assert after <= before if sign > 0 else after >= before
        for sign, edited in _one_fact_edits(b):
            after = engine.exists_homomorphism(a, edited)
            assert after >= before if sign > 0 else after <= before
