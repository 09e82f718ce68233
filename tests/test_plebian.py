"""Unit tests for plebian companions (Section 6.1)."""

import pytest

from repro.core import (
    boolean_query_of_nonboolean,
    hom_from_hom_of_companions,
    hom_of_companions_from_hom,
    observation_6_1_holds,
    observation_6_2_counterexample,
    observation_6_2_extension_direction,
    observation_6_2_holds,
    observation_6_2_restriction_direction,
    plebian_companion,
    plebian_vocabulary,
)
from repro.exceptions import ValidationError
from repro.homomorphism import find_homomorphism, is_homomorphism
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    bicycle_with_hub_constant,
    directed_cycle,
    random_directed_graph,
)


def expand(structure, assignments):
    return structure.expand_with_constants(assignments)


@pytest.fixture
def c3_pinned():
    return expand(directed_cycle(3), {"c1": 0})


class TestVocabulary:
    def test_new_relations_generated(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c1"])
        rho = plebian_vocabulary(vocab)
        # E kept; E with c1 at position 0, position 1, or both
        assert rho.has_relation("E")
        names = set(rho.relation_names)
        assert len(names) == 4
        assert rho.is_purely_relational()

    def test_arities(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c1"])
        rho = plebian_vocabulary(vocab)
        arities = sorted(rho.relations.values())
        assert arities == [0, 1, 1, 2]

    def test_two_constants(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c1", "c2"])
        rho = plebian_vocabulary(vocab)
        # E + (positions {0},{1}: 2 constants each) + ({0,1}: 4 combos)
        assert len(rho.relation_names) == 1 + 2 + 2 + 4

    def test_requires_constants(self):
        with pytest.raises(ValidationError):
            plebian_vocabulary(GRAPH_VOCABULARY)


class TestCompanionConstruction:
    def test_universe_drops_named(self, c3_pinned):
        companion = plebian_companion(c3_pinned)
        assert companion.size() == 2
        assert 0 not in companion.universe_set

    def test_relativized_facts(self, c3_pinned):
        companion = plebian_companion(c3_pinned)
        # E keeps the edge 1 -> 2 only
        assert companion.relation("E") == frozenset({(1, 2)})
        # E with c1 at position 0 records the out-edge of element 0
        rel_names = [n for n in companion.vocabulary.relation_names
                     if n != "E"]
        facts = {n: companion.relation(n) for n in rel_names}
        nonempty = {n: f for n, f in facts.items() if f}
        assert len(nonempty) == 2  # edge into 0 and edge out of 0

    def test_nullary_relation(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c1"])
        loop = Structure(vocab, [0], {"E": [(0, 0)]}, {"c1": 0})
        companion = plebian_companion(loop)
        full = [n for n in companion.vocabulary.relation_names
                if companion.vocabulary.arity(n) == 0]
        assert len(full) == 1
        assert companion.relation(full[0]) == frozenset({()})


class TestObservations:
    def test_observation_6_1(self, c3_pinned):
        assert observation_6_1_holds(c3_pinned)
        assert observation_6_1_holds(bicycle_with_hub_constant(5))

    def test_extension_direction_always_holds(self):
        pairs = [
            (expand(directed_cycle(6), {"c1": 0}),
             expand(directed_cycle(3), {"c1": 0})),
            (expand(directed_cycle(3), {"c1": 0}),
             expand(directed_cycle(6), {"c1": 0})),
        ]
        for a, b in pairs:
            assert observation_6_2_extension_direction(a, b)

    def test_restriction_direction_gap_on_cycles(self):
        # REPRODUCTION FINDING: hom (C6,0) -> (C3,0) exists (i mod 3) but
        # maps unnamed 3 onto the constant; no companion hom exists.
        a = expand(directed_cycle(6), {"c1": 0})
        b = expand(directed_cycle(3), {"c1": 0})
        assert find_homomorphism(a, b) is not None
        assert not observation_6_2_restriction_direction(a, b)
        assert not observation_6_2_holds(a, b)

    def test_restriction_direction_minimal_counterexample(self):
        a, b = observation_6_2_counterexample()
        assert find_homomorphism(a, b) is not None
        pa, pb = plebian_companion(a), plebian_companion(b)
        assert pb.size() == 0 and pa.size() == 1
        assert find_homomorphism(pa, pb) is None
        assert not observation_6_2_restriction_direction(a, b)

    def test_no_hom_case_vacuous(self):
        a = expand(directed_cycle(3), {"c1": 0})
        b = expand(directed_cycle(6), {"c1": 0})
        # no hom C3 -> C6: both directions vacuous/consistent
        assert find_homomorphism(a, b) is None
        assert observation_6_2_holds(a, b)

    def test_observation_6_2_random_extension(self):
        for seed in range(5):
            a = expand(random_directed_graph(3, 0.5, seed), {"c1": 0})
            b = expand(random_directed_graph(4, 0.5, seed + 10), {"c1": 0})
            assert observation_6_2_extension_direction(a, b)

    def test_witness_translation_round_trip(self):
        # a pair whose (unique) homomorphism keeps unnamed elements
        # unnamed, so the restriction direction goes through
        from repro.structures import directed_path

        a = expand(directed_path(3), {"c1": 0})
        b = expand(directed_cycle(3), {"c1": 0})
        hom = find_homomorphism(a, b)
        assert hom is not None
        pa, pb = plebian_companion(a), plebian_companion(b)
        restricted = hom_of_companions_from_hom(hom, a, b)
        assert is_homomorphism(pa, pb, restricted)
        extended = hom_from_hom_of_companions(restricted, a, b)
        assert is_homomorphism(a, b, extended)


class TestNonBooleanReduction:
    def test_boolean_query_of_query_answers(self):
        # q(A) = out-degree-positive elements
        def answers(structure):
            return {
                (x,)
                for (x, y) in structure.relation("E")
            }

        boolean = boolean_query_of_nonboolean(answers)
        good = expand(directed_cycle(3), {"c1": 0})
        assert boolean(good)
        dead_end = directed_cycle(3).with_element(9)
        pinned_dead = expand(dead_end, {"c1": 9})
        assert not boolean(pinned_dead)
