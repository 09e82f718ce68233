"""Unit tests for homomorphism counting and Lovász vectors."""

from itertools import combinations

import pytest

from repro.homomorphism import are_isomorphic, is_core
from repro.homomorphism.counting import (
    automorphism_count,
    endomorphism_count,
    lovasz_agrees_with_isomorphism,
    lovasz_distinguishes,
    lovasz_vector,
    surjective_hom_count,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    directed_clique,
    directed_cycle,
    directed_path,
    enumerate_structures,
    single_loop,
    undirected_cycle,
)


class TestBasicCounts:
    def test_endomorphisms_of_cycle(self):
        # endos of a directed cycle = rotations
        assert endomorphism_count(directed_cycle(4)) == 4

    def test_automorphisms_of_cycle(self):
        assert automorphism_count(directed_cycle(5)) == 5

    def test_automorphisms_of_path(self):
        assert automorphism_count(directed_path(4)) == 1

    def test_core_has_endos_equal_autos(self):
        for s in (directed_cycle(3), directed_path(3), single_loop()):
            assert is_core(s)
            assert endomorphism_count(s) == automorphism_count(s)

    def test_non_core_has_more_endos(self):
        s = undirected_cycle(4)  # core K2
        assert endomorphism_count(s) > automorphism_count(s)

    def test_surjective_count(self):
        # surjective homs C6 -> C3: the 3 rotated windings
        assert surjective_hom_count(directed_cycle(6), directed_cycle(3)) == 3
        assert surjective_hom_count(directed_path(2), directed_cycle(3)) == 0


class TestLovaszVectors:
    def test_vector_positions_are_counts(self):
        v = lovasz_vector(directed_cycle(3), 1)
        # size-1 test structures: a lone point (3 homs) and a loop (0)
        assert sorted(v) == [0, 3]

    def test_isomorphic_structures_same_vector(self):
        a = directed_cycle(3)
        b = a.rename({0: "x", 1: "y", 2: "z"})
        assert lovasz_vector(a, 2) == lovasz_vector(b, 2)

    def test_distinguishes_non_isomorphic(self):
        assert lovasz_distinguishes(directed_cycle(3), directed_path(3), 2)
        assert lovasz_distinguishes(single_loop(), directed_clique(2), 1)

    def test_finer_than_hom_equivalence(self):
        # C3 and C3+C3 are hom-equivalent but Lovász-distinct
        from repro.structures import disjoint_union

        one = directed_cycle(3)
        two = disjoint_union(one, one)
        assert lovasz_distinguishes(one, two, 1)

    def test_lovasz_theorem_on_all_two_element_structures(self):
        """Lovász: vector equality == isomorphism (exhaustive, size 2)."""
        structures = list(enumerate_structures(GRAPH_VOCABULARY, 2))
        for a, b in combinations(structures, 2):
            assert not are_isomorphic(a, b)
            assert lovasz_distinguishes(a, b, 2), (a, b)

    @pytest.mark.parametrize("pair", [
        (directed_cycle(3), directed_cycle(3)),
        (directed_path(2), directed_path(2)),
        (directed_path(2), single_loop()),
    ])
    def test_agreement_helper(self, pair):
        assert lovasz_agrees_with_isomorphism(*pair)
