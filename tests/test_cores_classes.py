"""Unit tests for Section 6.2: Boolean queries, cores, wheels and bicycles."""

import pytest

from repro.core import (
    bicycle_core_is_k4,
    bicycle_report,
    bicycle_sweep,
    core_degree,
    core_treewidth,
    corollary_6_4_witness,
    in_h_t_k,
    wheel_is_core,
)
from repro.structures import (
    clique_structure,
    grid_structure,
    star_structure,
    undirected_cycle,
    undirected_path,
    wheel_structure,
)


class TestCoreMeasures:
    def test_core_degree_of_bipartite(self):
        # bipartite structures have core K2: degree 1
        assert core_degree(grid_structure(3, 3)) == 1
        assert core_degree(undirected_path(5)) == 1

    def test_core_treewidth_of_bipartite(self):
        assert core_treewidth(grid_structure(3, 3)) == 1

    def test_core_treewidth_of_core(self):
        assert core_treewidth(undirected_cycle(5)) == 2

    def test_h_t_k_membership(self):
        # Section 6.2: bipartite ⊆ H(T(2)); grids witness properness
        assert in_h_t_k(grid_structure(3, 4), 2)
        assert not in_h_t_k(undirected_cycle(5), 2)
        assert in_h_t_k(undirected_cycle(5), 3)


class TestWheels:
    @pytest.mark.parametrize("n", [5, 7])
    def test_odd_wheels_are_cores(self, n):
        assert wheel_is_core(n)

    @pytest.mark.parametrize("n", [4, 6])
    def test_even_wheels_not_cores(self, n):
        assert not wheel_is_core(n)

    def test_wheels_4_colorable(self):
        from repro.homomorphism import has_homomorphism

        for n in (4, 5, 6, 7):
            assert has_homomorphism(wheel_structure(n), clique_structure(4))


class TestBicycles:
    @pytest.mark.parametrize("n", [5, 7])
    def test_core_is_k4(self, n):
        assert bicycle_core_is_k4(n)

    def test_report_matches_paper(self):
        report = bicycle_report(5)
        assert report.core_size == 4
        assert report.core_degree == 3
        assert report.expansion_is_core
        assert report.expansion_core_degree == 5

    def test_sweep_shows_unbounded_expansion_degree(self):
        """The Section 6.2 punchline: plain cores have constant degree 3
        while the expansions' cores have degree n -> unbounded."""
        reports = bicycle_sweep([5, 7, 9])
        assert all(r.core_degree == 3 for r in reports)
        degrees = [r.expansion_core_degree for r in reports]
        assert degrees == [5, 7, 9]
        assert all(r.expansion_is_core for r in reports)


class TestCorollary64:
    def test_core_witness_vs_structure_witness(self):
        # the star's core is K2: trivially dense, no witness needed even
        # though the structure itself is large
        star = star_structure(20)
        witness = corollary_6_4_witness(star, s=0, d=1, m=3)
        assert witness is None  # core K2 has no 3-element scattered set

    def test_large_core_produces_witness(self):
        cycle = undirected_cycle(31)  # odd: its own core
        witness = corollary_6_4_witness(cycle, s=0, d=2, m=4)
        assert witness is not None

    def test_even_cycle_core_collapses(self):
        # an even cycle is bipartite: its core K2 has no witness at all
        cycle = undirected_cycle(30)
        assert corollary_6_4_witness(cycle, s=0, d=2, m=4) is None
