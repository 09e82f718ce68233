"""Unit tests for the Sunflower Lemma implementation."""

from itertools import combinations

import pytest

from repro.exceptions import ValidationError
from repro.graphtheory import (
    find_sunflower,
    is_sunflower,
    sunflower_bound,
    sunflower_free_family,
)


def F(*sets):
    return [frozenset(s) for s in sets]


class TestPredicate:
    def test_disjoint_sets_are_sunflower(self):
        assert is_sunflower(F({1, 2}, {3, 4}, {5, 6}), frozenset())

    def test_common_core(self):
        family = F({1, 2, 3}, {1, 2, 4}, {1, 2, 5})
        assert is_sunflower(family, frozenset({1, 2}))
        assert is_sunflower(family)  # core inferred

    def test_not_sunflower(self):
        assert not is_sunflower(F({1, 2}, {2, 3}, {3, 4}))

    def test_wrong_core_rejected(self):
        assert not is_sunflower(F({1, 2}, {1, 3}), frozenset({2}))

    def test_single_set(self):
        assert is_sunflower(F({1, 2}))

    def test_duplicates_rejected(self):
        assert not is_sunflower([frozenset({1}), frozenset({1})])


class TestBound:
    def test_values(self):
        assert sunflower_bound(1, 2) == 1
        assert sunflower_bound(2, 3) == 8
        assert sunflower_bound(3, 3) == 48

    def test_invalid(self):
        with pytest.raises(ValidationError):
            sunflower_bound(-1, 2)
        with pytest.raises(ValidationError):
            sunflower_bound(2, 0)


class TestExtraction:
    def test_simple_extraction(self):
        family = F({1, 2}, {1, 3}, {1, 4}, {5, 6})
        flower = find_sunflower(family, 3)
        assert flower is not None
        assert flower.num_petals() == 3
        assert is_sunflower(flower.petals, flower.core)
        assert all(p in family for p in flower.petals)

    def test_empty_core_extraction(self):
        family = F({1}, {2}, {3}, {4})
        flower = find_sunflower(family, 4)
        assert flower.core == frozenset()

    def test_too_few_sets(self):
        assert find_sunflower(F({1, 2}), 2) is None

    def test_p_must_be_positive(self):
        with pytest.raises(ValidationError):
            find_sunflower(F({1}), 0)

    def test_above_bound_always_succeeds(self):
        # all 2-subsets of a 6-set: 15 > 2!(3-1)^2 = 8 -> 3 petals exist
        universe = range(6)
        family = [frozenset(c) for c in combinations(universe, 2)]
        assert len(family) > sunflower_bound(2, 3)
        flower = find_sunflower(family, 3)
        assert flower is not None
        assert flower.num_petals() >= 3

    def test_mixed_sizes(self):
        family = F({1, 2, 3}, {1, 4}, {1, 5}, {1, 6})
        flower = find_sunflower(family, 3)
        assert flower is not None
        assert is_sunflower(flower.petals, flower.core)

    def test_open_petals_disjoint(self):
        family = F({1, 2}, {1, 3}, {1, 4})
        flower = find_sunflower(family, 3)
        opened = flower.open_petals()
        for i, a in enumerate(opened):
            for b in opened[i + 1:]:
                assert not (a & b)


class TestLowerBoundConstruction:
    def test_family_size(self):
        family = sunflower_free_family(2, 3)
        assert len(family) == 4  # (p-1)^k = 2^2

    def test_no_sunflower_inside(self):
        family = sunflower_free_family(2, 3)
        # check exhaustively: no 3 sets form a sunflower
        for trio in combinations(family, 3):
            assert not is_sunflower(list(trio))

    def test_uniform_size(self):
        family = sunflower_free_family(3, 4)
        assert all(len(s) == 3 for s in family)
        assert len(family) == 27

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            sunflower_free_family(0, 3)
        with pytest.raises(ValidationError):
            sunflower_free_family(2, 1)
