"""Unit tests for cores, retractions and homomorphic equivalence."""

from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    bicycle_structure,
    bicycle_with_hub_constant,
    clique_structure,
    directed_cycle,
    directed_path,
    disjoint_union,
    grid_structure,
    single_edge,
    single_loop,
    undirected_cycle,
    undirected_path,
    wheel_structure,
)
from repro.homomorphism import (
    are_homomorphically_equivalent,
    are_isomorphic,
    compute_core,
    compute_core_with_map,
    core_certificate,
    find_proper_retraction,
    find_retraction,
    have_same_core,
    homomorphism_preorder_classes,
    is_core,
    is_homomorphism,
    is_retract,
)


class TestIsCore:
    def test_directed_cycles_are_cores(self):
        for n in (2, 3, 4, 5):
            assert is_core(directed_cycle(n))

    def test_directed_paths_are_cores(self):
        # directed paths have no proper retract (endpoints forced)
        for n in (1, 2, 3, 4):
            assert is_core(directed_path(n))

    def test_cliques_are_cores(self):
        for n in (1, 2, 3, 4):
            assert is_core(clique_structure(n))

    def test_even_undirected_cycle_not_core(self):
        assert not is_core(undirected_cycle(4))

    def test_odd_undirected_cycle_is_core(self):
        assert is_core(undirected_cycle(5))

    def test_odd_wheel_is_core(self):
        assert is_core(wheel_structure(5))
        assert is_core(wheel_structure(7))

    def test_even_wheel_not_core(self):
        assert not is_core(wheel_structure(4))
        assert not is_core(wheel_structure(6))


class TestComputeCore:
    def test_bipartite_core_is_single_edge(self):
        for s in (undirected_path(4), grid_structure(2, 3),
                  undirected_cycle(6)):
            core = compute_core(s)
            assert are_isomorphic(core, single_edge()) or core.size() == 2

    def test_loop_absorbs_everything(self):
        s = Structure(GRAPH_VOCABULARY, [0, 1, 2],
                      {"E": [(0, 0), (0, 1), (1, 2)]})
        core = compute_core(s)
        assert are_isomorphic(core, single_loop())

    def test_core_of_core_is_core(self):
        s = grid_structure(3, 3)
        core = compute_core(s)
        assert is_core(core)
        assert compute_core(core) == core

    def test_core_is_substructure(self):
        s = undirected_cycle(6)
        core = compute_core(s)
        assert core.is_substructure_of(s)

    def test_core_homomorphically_equivalent(self):
        s = grid_structure(2, 4)
        assert are_homomorphically_equivalent(s, compute_core(s))

    def test_disjoint_union_of_equivalent(self):
        u = disjoint_union(directed_cycle(3), directed_cycle(3))
        core = compute_core(u)
        assert core.size() == 3

    def test_core_map_is_hom_onto(self):
        s = undirected_cycle(8)
        core, mapping = compute_core_with_map(s)
        assert is_homomorphism(s, core, mapping)
        assert set(mapping.values()) == set(core.universe)

    def test_certificate(self):
        core, mapping, ok = core_certificate(grid_structure(2, 3))
        assert ok

    def test_core_unique_up_to_iso(self):
        # two different hom-equivalent structures share their core shape
        a = compute_core(undirected_cycle(4))
        b = compute_core(undirected_path(5))
        assert are_isomorphic(a, b)


class TestPaperExamples:
    def test_bicycle_core_is_k4(self):
        core = compute_core(bicycle_structure(5))
        assert core.size() == 4
        assert are_isomorphic(
            core.canonical_relabel(), clique_structure(4).canonical_relabel()
        )

    def test_bicycle_with_hub_is_core_for_odd_n(self):
        for n in (5, 7):
            assert is_core(bicycle_with_hub_constant(n))

    def test_constants_protected_in_core(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c"])
        s = Structure(vocab, [0, 1, 2],
                      {"E": [(0, 1), (1, 0), (1, 2), (2, 1)]}, {"c": 2})
        core = compute_core(s)
        assert 2 in core.universe_set


class TestRetractions:
    def test_find_retraction_onto_edge(self):
        s = undirected_path(4)
        r = find_retraction(s, [0, 1])
        assert r is not None
        assert r[0] == 0 and r[1] == 1
        assert set(r.values()) <= {0, 1}

    def test_no_retraction_shrinking_odd_cycle(self):
        s = undirected_cycle(5)
        assert find_retraction(s, [0, 1]) is None

    def test_is_retract(self):
        s = undirected_path(4)
        sub = s.restrict([1, 2])
        assert is_retract(s, sub)

    def test_is_retract_rejects_non_substructure(self):
        assert not is_retract(undirected_path(3), directed_cycle(3))

    def test_proper_retraction_none_for_core(self):
        assert find_proper_retraction(directed_cycle(4)) is None


class TestEquivalenceClasses:
    def test_have_same_core(self):
        assert have_same_core(undirected_cycle(4), undirected_path(3))
        assert not have_same_core(undirected_cycle(5), undirected_path(3))

    def test_preorder_classes(self):
        structures = [
            undirected_path(3),
            undirected_cycle(4),
            undirected_cycle(5),
            directed_cycle(3),
        ]
        classes = homomorphism_preorder_classes(structures)
        assert len(classes) == 3
        sizes = sorted(len(c) for c in classes)
        assert sizes == [1, 1, 2]
