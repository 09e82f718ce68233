"""Unit tests for nice tree decompositions and treewidth DP."""

from itertools import product

import pytest

from repro.exceptions import ValidationError
from repro.graphtheory import (
    Graph,
    binary_tree,
    complete_graph,
    count_proper_colorings_treewidth,
    cycle_graph,
    grid_graph,
    is_c_colorable_treewidth,
    k_tree,
    make_nice,
    max_independent_set_treewidth,
    nice_decomposition,
    path_graph,
    random_graph,
    star_graph,
    treewidth_decomposition,
    treewidth_exact,
)
from repro.graphtheory.scattered import _max_independent_set


FAMILIES = [
    path_graph(7),
    cycle_graph(6),
    star_graph(5),
    binary_tree(3),
    grid_graph(3, 3),
    k_tree(2, 9, seed=1),
    random_graph(8, 0.3, seed=3),
]


class TestMakeNice:
    @pytest.mark.parametrize("graph", FAMILIES)
    def test_valid_and_width_preserving(self, graph):
        td = treewidth_decomposition(graph)
        nd = make_nice(td, graph)
        nd.validate(graph)
        assert nd.width() == td.width()

    def test_nice_decomposition_helper(self):
        g = cycle_graph(5)
        nd = nice_decomposition(g)
        nd.validate(g)
        assert nd.width() == treewidth_exact(g)

    def test_empty_graph(self):
        nd = nice_decomposition(Graph())
        assert nd.width() <= 0

    def test_single_vertex(self):
        g = Graph([0], [])
        nd = nice_decomposition(g)
        nd.validate(g)

    def test_node_kinds(self):
        nd = nice_decomposition(grid_graph(2, 3))
        kinds = {n.kind for n in nd.nodes}
        assert "leaf" in kinds and "introduce" in kinds
        assert "forget" in kinds

    def test_join_nodes_for_branching(self):
        nd = nice_decomposition(star_graph(4))
        # high-degree decompositions need joins (or chains; allow both)
        assert all(
            len(n.children) == 2 for n in nd.nodes if n.kind == "join"
        )


class TestIndependentSetDP:
    @pytest.mark.parametrize("graph", FAMILIES)
    def test_matches_branch_and_bound(self, graph):
        dp = max_independent_set_treewidth(graph)
        bb = len(_max_independent_set(graph, 10 ** 6))
        assert dp == bb

    def test_known_values(self):
        assert max_independent_set_treewidth(path_graph(7)) == 4
        assert max_independent_set_treewidth(cycle_graph(6)) == 3
        assert max_independent_set_treewidth(complete_graph(5)) == 1
        assert max_independent_set_treewidth(star_graph(6)) == 6


class TestColoringDP:
    @pytest.mark.parametrize("graph", [g for g in FAMILIES
                                       if g.num_vertices() <= 9])
    @pytest.mark.parametrize("colors", [2, 3])
    def test_counts_match_brute_force(self, graph, colors):
        vs = list(graph.vertices)
        brute = 0
        for assignment in product(range(colors), repeat=len(vs)):
            coloring = dict(zip(vs, assignment))
            if all(coloring[u] != coloring[v] for u, v in graph.edge_list()):
                brute += 1
        assert count_proper_colorings_treewidth(graph, colors) == brute

    def test_chromatic_facts(self):
        assert not is_c_colorable_treewidth(cycle_graph(5), 2)
        assert is_c_colorable_treewidth(cycle_graph(5), 3)
        assert is_c_colorable_treewidth(grid_graph(3, 3), 2)
        assert not is_c_colorable_treewidth(complete_graph(4), 3)

    def test_zero_colors(self):
        g = path_graph(2)
        assert count_proper_colorings_treewidth(g, 0) == 0

    def test_negative_colors_rejected(self):
        with pytest.raises(ValidationError):
            count_proper_colorings_treewidth(path_graph(2), -1)

    def test_coloring_is_hom_into_clique(self):
        """c-colorability == homomorphism into K_c (the CSP face)."""
        from repro.homomorphism import has_homomorphism
        from repro.structures import clique_structure, graph_as_structure

        for g in (cycle_graph(5), grid_graph(2, 3), complete_graph(4)):
            for c in (2, 3, 4):
                dp = is_c_colorable_treewidth(g, c)
                hom = has_homomorphism(
                    graph_as_structure(g), clique_structure(c)
                )
                assert dp == hom
