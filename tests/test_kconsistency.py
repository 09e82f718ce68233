"""Unit tests for the k-consistency procedure."""

import pytest

from repro.exceptions import BudgetExceededError, ValidationError
from repro.homomorphism import has_homomorphism
from repro.pebble.kconsistency import (
    consistency_equals_game,
    direct_k_consistency,
    establish_k_consistency,
    passes_k_consistency,
)
from repro.structures import (
    directed_clique,
    directed_cycle,
    directed_path,
    random_directed_graph,
    single_loop,
)


class TestBasics:
    def test_hom_implies_pass(self):
        pairs = [
            (directed_path(4), directed_cycle(3)),
            (directed_cycle(6), directed_cycle(2)),
        ]
        for a, b in pairs:
            assert has_homomorphism(a, b)
            for k in (2, 3):
                assert passes_k_consistency(a, b, k)
                assert direct_k_consistency(a, b, k)

    def test_refutation(self):
        # C3 into a path: 2-consistency already refutes
        assert not direct_k_consistency(directed_cycle(3), directed_path(6), 2)
        assert not passes_k_consistency(directed_cycle(3), directed_path(6), 2)

    def test_incomplete_relaxation(self):
        # C3 -> C4: no hom, but 2-consistency passes (the relaxation gap)
        assert not has_homomorphism(directed_cycle(3), directed_cycle(4))
        assert direct_k_consistency(directed_cycle(3), directed_cycle(4), 2)

    def test_closure_family_is_small_positions(self):
        family = establish_k_consistency(
            directed_path(2), directed_cycle(3), 2
        )
        assert all(len(pos) < 2 for pos in family)
        assert frozenset() in family

    def test_needs_k_at_least_two(self):
        with pytest.raises(ValidationError):
            direct_k_consistency(directed_path(2), directed_path(2), 1)

    def test_budget(self):
        a = random_directed_graph(8, 0.3, 1)
        b = random_directed_graph(8, 0.3, 2)
        with pytest.raises(BudgetExceededError):
            direct_k_consistency(a, b, 4, budget=100)


class TestEquivalenceWithGame:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_pairs_k2(self, seed):
        a = random_directed_graph(4, 0.3, seed)
        b = random_directed_graph(4, 0.3, seed + 100)
        assert consistency_equals_game(a, b, 2)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs_k3(self, seed):
        a = random_directed_graph(4, 0.35, seed)
        b = random_directed_graph(4, 0.35, seed + 200)
        assert consistency_equals_game(a, b, 3)

    def test_structured_pairs(self):
        pairs = [
            (directed_cycle(3), directed_cycle(4)),
            (directed_cycle(3), directed_path(5)),
            (directed_clique(3), directed_clique(2)),
            (single_loop(), directed_cycle(3)),
        ]
        for a, b in pairs:
            for k in (2, 3):
                assert consistency_equals_game(a, b, k), (a, b, k)
