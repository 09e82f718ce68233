"""Unit tests for Ramsey bounds and witnesses."""

from itertools import product

import pytest

from repro.exceptions import ValidationError
from repro.graphtheory import (
    complete_graph,
    cycle_graph,
    empty_graph,
    find_monochromatic_subset,
    is_monochromatic,
    paper_r,
    path_graph,
    ramsey_bound,
    ramsey_graph_witness,
)


class TestBound:
    def test_pigeonhole_case(self):
        # k = 1: l * m elements can avoid a monochromatic (m+1)-set,
        # l * m + 1 cannot.
        assert ramsey_bound(2, 1, 3) == 6
        assert ramsey_bound(3, 1, 2) == 6

    def test_trivial_small_m(self):
        # m < k: any k-set works, so N = k - 1
        assert ramsey_bound(2, 3, 2) == 2

    def test_monotone_in_m(self):
        values = [ramsey_bound(2, 2, m) for m in (2, 3, 4)]
        assert values == sorted(values)

    def test_k0(self):
        assert ramsey_bound(2, 0, 5) == 5

    def test_invalid(self):
        with pytest.raises(ValidationError):
            ramsey_bound(0, 1, 1)

    def test_paper_alias(self):
        assert paper_r(2, 1, 4) == ramsey_bound(2, 1, 4)

    def test_pigeonhole_exhaustive(self):
        """Exhaustive: with > l*m elements, some color class has > m."""
        l, m = 2, 2
        n = ramsey_bound(l, 1, m) + 1
        for coloring_tuple in product(range(l), repeat=n):
            def coloring(sub, c=coloring_tuple):
                return c[sub[0]]

            found = find_monochromatic_subset(range(n), 1, coloring, m)
            assert found is not None

    def test_graph_case_statement_holds_at_bound(self):
        """For the (2,2) case, verify on K_6-style instances (the classical
        R(3,3)=6 fact) rather than at the astronomically larger bound."""
        n = 6
        # any 2-coloring of K_6's edges has a monochromatic triangle:
        # spot-check a few structured colorings
        colorings = []
        colorings.append(lambda pair: 0)
        colorings.append(lambda pair: (pair[0] + pair[1]) % 2)
        colorings.append(lambda pair: 1 if abs(pair[0] - pair[1]) in (1, 5) else 0)
        for coloring in colorings:
            found = find_monochromatic_subset(range(n), 2, coloring, 2)
            assert found is not None
            assert is_monochromatic(sorted(found), 2, coloring)


class TestWitnessSearch:
    def test_finds_clique(self):
        kind, vertices = ramsey_graph_witness(complete_graph(5), 2)
        assert kind == "clique" and len(vertices) == 3

    def test_finds_independent(self):
        kind, vertices = ramsey_graph_witness(empty_graph(5), 2)
        assert kind == "independent" and len(vertices) == 3

    def test_below_bound_may_fail(self):
        # C5 has neither a triangle nor an independent set of size 3? It
        # does have one (e.g. {0, 2}, size 2 only for m=2 -> need > 2).
        result = ramsey_graph_witness(cycle_graph(5), 2)
        assert result is None  # C5 is the R(3,3) > 5 witness

    def test_path_independent(self):
        kind, vertices = ramsey_graph_witness(path_graph(7), 2)
        assert kind == "independent"

    def test_monochromatic_checker(self):
        coloring = lambda pair: 0
        assert is_monochromatic([1, 2, 3], 2, coloring)

    def test_target_smaller_than_k(self):
        found = find_monochromatic_subset(range(4), 3, lambda s: 0, 1)
        assert found is not None and len(found) == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValidationError):
            find_monochromatic_subset(range(3), -1, lambda s: 0, 1)


class TestBitCap:
    def test_tower_guard(self):
        from repro.exceptions import BudgetExceededError

        # r(4, 3, 7) would need ~10^900 digits
        with pytest.raises(BudgetExceededError):
            ramsey_bound(4, 3, 7)

    def test_cap_parameter(self):
        from repro.exceptions import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            ramsey_bound(2, 2, 30, bit_cap=100)
        assert ramsey_bound(2, 2, 3) > 0
