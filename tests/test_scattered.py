"""Unit tests for scattered sets and removal witnesses."""

import pytest

from repro.exceptions import ValidationError
from repro.graphtheory import (
    complete_graph,
    cycle_graph,
    find_removal_witness,
    find_scattered_set,
    greedy_scattered_set,
    grid_graph,
    is_scattered,
    max_scattered_set,
    path_graph,
    scattered_number,
    scattered_profile,
    spider_graph,
    star_graph,
    verify_removal_witness,
)


class TestPredicate:
    def test_far_apart_on_path(self):
        g = path_graph(10)
        assert is_scattered(g, [0, 5], 2)       # distance 5 > 4
        assert not is_scattered(g, [0, 4], 2)   # distance 4 <= 4
        assert is_scattered(g, [0, 4], 1)

    def test_zero_radius_means_distinct(self):
        g = complete_graph(4)
        assert is_scattered(g, [0, 1], 0)

    def test_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            is_scattered(path_graph(3), [0, 0], 1)

    def test_unknown_vertex_rejected(self):
        with pytest.raises(ValidationError):
            is_scattered(path_graph(3), [99], 1)

    def test_empty_and_singleton(self):
        g = path_graph(3)
        assert is_scattered(g, [], 5)
        assert is_scattered(g, [1], 5)


class TestMaximisers:
    def test_greedy_is_scattered(self):
        g = grid_graph(4, 4)
        for d in (1, 2):
            chosen = greedy_scattered_set(g, d)
            assert is_scattered(g, chosen, d)

    def test_exact_on_path(self):
        # P_n, d=1: max 1-scattered = ceil(n / 3)
        assert scattered_number(path_graph(9), 1) == 3
        assert scattered_number(path_graph(10), 1) == 4

    def test_exact_beats_or_equals_greedy(self):
        for seed_graph in (grid_graph(3, 4), cycle_graph(11), spider_graph(3, 3)):
            exact = max_scattered_set(seed_graph, 1)
            greedy = greedy_scattered_set(seed_graph, 1)
            assert len(exact) >= len(greedy)
            assert is_scattered(seed_graph, exact, 1)

    def test_find_scattered_set(self):
        g = path_graph(15)
        found = find_scattered_set(g, 1, 4)
        assert found is not None and len(found) == 4
        assert is_scattered(g, found, 1)
        assert find_scattered_set(complete_graph(5), 1, 2) is None

    def test_star_has_no_big_scattered_set(self):
        # every pair is at distance <= 2 (the Section 4 example)
        assert scattered_number(star_graph(30), 1) == 1


class TestRemovalWitness:
    def test_star_needs_one_removal(self):
        g = star_graph(20)
        witness = find_removal_witness(g, 2, 5, 1)
        assert witness is not None
        removal, scattered = witness
        assert len(removal) <= 1
        assert verify_removal_witness(g, 2, 5, 1, witness)

    def test_no_removal_needed_on_long_path(self):
        g = path_graph(30)
        removal, scattered = find_removal_witness(g, 2, 4, 1)
        assert removal == frozenset()

    def test_impossible_witness_returns_none(self):
        g = complete_graph(6)
        assert find_removal_witness(g, 1, 3, 1) is None

    def test_spider_body_removal(self):
        g = spider_graph(6, 3)
        witness = find_removal_witness(g, 1, 6, 1)
        assert witness is not None
        assert verify_removal_witness(g, 1, 6, 1, witness)

    def test_verify_rejects_too_many_removals(self):
        g = star_graph(6)
        assert not verify_removal_witness(
            g, 1, 2, 0, (frozenset({0}), (1, 2))
        )

    def test_verify_rejects_non_scattered(self):
        g = path_graph(5)
        assert not verify_removal_witness(
            g, 2, 2, 1, (frozenset(), (0, 1))
        )

    def test_profile(self):
        g = path_graph(20)
        profile = scattered_profile(g, [0, 1, 2])
        assert profile[0] == 20
        assert profile[0] >= profile[1] >= profile[2]
