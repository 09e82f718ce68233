"""Unit tests for structure classes and their closure properties."""

from repro.core import (
    all_finite_structures,
    bounded_degree_class,
    bounded_treewidth_class,
    closed_under_disjoint_unions_on,
    closed_under_substructures_on,
    cores_bounded_degree_class,
    cores_bounded_treewidth_class,
    excluded_clique_minor_class,
)
from repro.structures import (
    bicycle_structure,
    clique_structure,
    directed_cycle,
    grid_structure,
    star_structure,
    undirected_cycle,
    undirected_path,
)


class TestMembership:
    def test_all_structures(self):
        cls = all_finite_structures()
        assert directed_cycle(3) in cls

    def test_bounded_degree(self):
        cls = bounded_degree_class(2)
        assert undirected_path(5) in cls
        assert undirected_cycle(5) in cls
        assert star_structure(3) not in cls

    def test_bounded_treewidth(self):
        t2 = bounded_treewidth_class(2)  # treewidth < 2 = forests
        assert undirected_path(5) in t2
        assert undirected_cycle(5) not in t2
        t3 = bounded_treewidth_class(3)
        assert undirected_cycle(5) in t3
        assert grid_structure(3, 3) not in t3

    def test_excluded_minor(self):
        k4_free = excluded_clique_minor_class(4)
        assert undirected_cycle(6) in k4_free
        assert clique_structure(4) not in k4_free
        assert grid_structure(3, 3) not in k4_free

    def test_cores_bounded_degree(self):
        cls = cores_bounded_degree_class(3)
        # bicycles have core K4 of degree 3 (Section 6.2)
        assert bicycle_structure(5) in cls
        assert bicycle_structure(7) in cls

    def test_cores_bounded_treewidth(self):
        # grids are bipartite: core K2, treewidth 1 < 2 (Section 6.2)
        h_t2 = cores_bounded_treewidth_class(2)
        assert grid_structure(3, 3) in h_t2
        assert undirected_cycle(5) not in h_t2

    def test_t_k_properly_inside_h_t_k(self):
        """Section 6.2: T(2) properly contained in H(T(2)) — grids witness."""
        t2 = bounded_treewidth_class(2)
        h_t2 = cores_bounded_treewidth_class(2)
        grid = grid_structure(3, 3)
        assert grid not in t2
        assert grid in h_t2
        # and T(2) ⊆ H(T(2)) on samples
        for s in (undirected_path(4), star_structure(4)):
            assert s in t2 and s in h_t2


class TestClosure:
    def test_bounded_degree_closed(self):
        cls = bounded_degree_class(3)
        samples = [undirected_cycle(4), undirected_path(4)]
        assert closed_under_substructures_on(cls, samples)
        assert closed_under_disjoint_unions_on(cls, samples)

    def test_bounded_treewidth_closed(self):
        cls = bounded_treewidth_class(3)
        samples = [undirected_cycle(5), undirected_path(5)]
        assert closed_under_substructures_on(cls, samples)
        assert closed_under_disjoint_unions_on(cls, samples)

    def test_excluded_minor_closed(self):
        cls = excluded_clique_minor_class(4)
        samples = [undirected_cycle(5), undirected_path(4)]
        assert closed_under_substructures_on(cls, samples)
        assert closed_under_disjoint_unions_on(cls, samples)

    def test_non_closed_class_detected(self):
        from repro.core import StructureClass

        # "exactly 3 facts" is not closed under substructures
        cls = StructureClass("3 facts", lambda s: s.num_facts() == 3)
        assert not closed_under_substructures_on(cls, [directed_cycle(3)])

    def test_filter(self):
        cls = bounded_degree_class(2)
        members = cls.filter([undirected_path(3), star_structure(4)])
        assert len(members) == 1
