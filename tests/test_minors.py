"""Unit tests for minor containment, models and planarity."""

from repro.graphtheory import (
    Graph,
    binary_tree,
    clique_minor_in_bipartite,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    excludes_clique_minor,
    find_minor_model,
    grid_graph,
    hadwiger_number,
    has_clique_minor,
    has_minor,
    is_planar,
    path_graph,
    random_tree,
    star_graph,
    subgraph_isomorphism,
    verify_minor_model,
    wheel_graph,
)
from repro.graphtheory.minors import all_minors_up_to


class TestSubgraphIsomorphism:
    def test_path_in_cycle(self):
        emb = subgraph_isomorphism(path_graph(3), cycle_graph(5))
        assert emb is not None
        host = cycle_graph(5)
        assert host.has_edge(emb[0], emb[1]) and host.has_edge(emb[1], emb[2])

    def test_triangle_not_in_bipartite(self):
        assert subgraph_isomorphism(cycle_graph(3), grid_graph(3, 3)) is None

    def test_spanning_requires_equal_size(self):
        assert subgraph_isomorphism(
            path_graph(3), path_graph(4), spanning=True
        ) is None

    def test_spanning_subgraph(self):
        assert subgraph_isomorphism(
            path_graph(4), cycle_graph(4), spanning=True
        ) is not None


class TestMinorContainment:
    def test_every_graph_has_k1_minor(self):
        assert has_clique_minor(path_graph(1), 1)

    def test_k3_minor_of_long_cycle(self):
        assert has_clique_minor(cycle_graph(9), 3)

    def test_k3_not_minor_of_tree(self):
        assert not has_clique_minor(binary_tree(3), 3)
        assert excludes_clique_minor(random_tree(15, seed=2), 3)

    def test_k4_minor_of_wheel(self):
        assert has_clique_minor(wheel_graph(4), 4)

    def test_k5_not_minor_of_planar(self):
        assert not has_clique_minor(grid_graph(3, 3), 5)
        assert not has_clique_minor(wheel_graph(6), 5)

    def test_k4_minor_of_grid(self):
        assert has_clique_minor(grid_graph(3, 3), 4)

    def test_k5_minor_of_k44(self):
        # Section 2.1: K_k is a minor of K_{k-1,k-1}; k = 5 here.
        assert has_minor(complete_bipartite_graph(4, 4), complete_graph(5))

    def test_k5_not_minor_of_k33(self):
        # K_{3,3} contracts to W_4 at best; no K_5.
        assert not has_minor(complete_bipartite_graph(3, 3), complete_graph(5))

    def test_cycle_minor_of_grid(self):
        assert has_minor(grid_graph(2, 3), cycle_graph(4))

    def test_path_minor_of_everything_connected(self):
        assert has_minor(star_graph(4), path_graph(3))

    def test_minor_needs_enough_edges(self):
        assert not has_minor(path_graph(5), cycle_graph(3))

    def test_paper_k_k_in_bipartite(self):
        # Section 2.1: K_k is a minor of K_{k-1,k-1}
        for k in (3, 4, 5):
            host = complete_bipartite_graph(k - 1, k - 1)
            model = clique_minor_in_bipartite(k)
            assert verify_minor_model(host, complete_graph(k), model)
            assert has_clique_minor(host, k)


class TestMinorModels:
    def test_model_patches_verify(self):
        host = grid_graph(3, 3)
        model = find_minor_model(host, complete_graph(4))
        assert model is not None
        assert verify_minor_model(host, complete_graph(4), model)

    def test_no_model_when_absent(self):
        assert find_minor_model(binary_tree(2), cycle_graph(3)) is None

    def test_verify_rejects_disconnected_patch(self):
        host = path_graph(4)
        bad = {0: frozenset({0, 2}), 1: frozenset({1})}
        assert not verify_minor_model(host, path_graph(2), bad)

    def test_verify_rejects_overlapping_patches(self):
        host = path_graph(3)
        bad = {0: frozenset({0, 1}), 1: frozenset({1, 2})}
        assert not verify_minor_model(host, path_graph(2), bad)

    def test_verify_rejects_missing_edge(self):
        host = Graph([0, 1, 2], [(0, 1)])
        bad = {0: frozenset({0}), 1: frozenset({2})}
        assert not verify_minor_model(host, path_graph(2), bad)

    def test_empty_pattern(self):
        assert find_minor_model(path_graph(2), Graph()) == {}


class TestAgainstBruteForce:
    def test_enumeration_agrees_on_tiny_hosts(self):
        hosts = [path_graph(4), cycle_graph(4), star_graph(3)]
        patterns = [path_graph(2), path_graph(3), cycle_graph(3),
                    complete_graph(3), star_graph(2)]
        for host in hosts:
            minors = all_minors_up_to(host, 4)
            for pattern in patterns:
                found = has_minor(host, pattern)
                brute = any(
                    subgraph_isomorphism(pattern, m, spanning=True) is not None
                    for m in minors
                    if m.num_vertices() == pattern.num_vertices()
                )
                assert found == brute, (host, pattern)


class TestHadwigerAndPlanarity:
    def test_hadwiger_values(self):
        assert hadwiger_number(complete_graph(5)) == 5
        assert hadwiger_number(cycle_graph(6)) == 3
        assert hadwiger_number(path_graph(4)) == 2
        assert hadwiger_number(Graph()) == 0

    def test_planar_families(self):
        assert is_planar(grid_graph(3, 4))
        assert is_planar(wheel_graph(6))
        assert is_planar(binary_tree(3))
        assert is_planar(cycle_graph(8))

    def test_nonplanar_families(self):
        assert not is_planar(complete_graph(5))
        assert not is_planar(complete_bipartite_graph(3, 3))
        assert not is_planar(complete_graph(6))

    def test_euler_shortcut(self):
        # dense graph rejected without minor search
        assert not is_planar(complete_graph(8))
