"""Unit tests for Lemma 5.2 and Theorem 5.3 (excluded minors)."""

from repro.core import (
    lemma_5_2_witness,
    theorem_5_3_sweep,
    theorem_5_3_witness,
    verify_lemma_5_2_witness,
    verify_theorem_5_3_witness,
)
from repro.graphtheory import (
    Graph,
    complete_bipartite_graph,
    grid_graph,
    has_clique_minor,
    is_scattered,
    random_planar_like,
    random_tree,
    star_graph,
)


def star_bipartite(leaves, hubs):
    """Left vertices all adjacent to each of ``hubs`` right vertices."""
    left = [("L", i) for i in range(leaves)]
    right = [("R", j) for j in range(hubs)]
    edges = [(l, r) for l in left for r in right]
    return Graph(left + right, edges), left


class TestLemma52:
    def test_forest_bipartite_no_exceptional_needed(self):
        # a perfect matching: K_3-minor-free, left side already 1-scattered
        left = [("L", i) for i in range(6)]
        right = [("R", i) for i in range(6)]
        g = Graph(left + right, [(("L", i), ("R", i)) for i in range(6)])
        witness = lemma_5_2_witness(g, left, k=3, m=4)
        assert witness is not None
        assert len(witness.exceptional) == 0
        assert verify_lemma_5_2_witness(g, left, witness, 3, 4)

    def test_single_hub_removed(self):
        # all leaves share one hub: B' = {hub} and the leaves scatter;
        # K_4-minor-free, so k = 4 allows |B'| <= 2
        g, left = star_bipartite(8, 1)
        witness = lemma_5_2_witness(g, left, k=4, m=5)
        assert witness is not None
        assert len(witness.exceptional) <= 2
        assert verify_lemma_5_2_witness(g, left, witness, 4, 5)

    def test_two_hubs(self):
        g, left = star_bipartite(9, 2)
        # K_{2,9} has no K_4 minor; with k = 5, |B'| <= 3 suffices
        assert not has_clique_minor(g, 4)
        witness = lemma_5_2_witness(g, left, k=5, m=6)
        assert witness is not None
        assert verify_lemma_5_2_witness(g, left, witness, 5, 6)

    def test_none_when_impossible(self):
        # complete bipartite K_{4,4}: the left side can never scatter
        # with only k-2 = 1 removal
        g = complete_bipartite_graph(4, 4)
        left = [("L", i) for i in range(4)]
        witness = lemma_5_2_witness(g, left, k=3, m=2)
        assert witness is None

    def test_verify_rejects_bad_witness(self):
        from repro.core import Lemma52Witness

        g, left = star_bipartite(5, 1)
        bad = Lemma52Witness(tuple(left), frozenset())
        # left side is not 1-scattered without removing the hub
        assert not verify_lemma_5_2_witness(g, left, bad, 4, 3)


class TestTheorem53:
    def test_tree_d1(self):
        g = random_tree(40, seed=5)
        witness = theorem_5_3_witness(g, k=3, d=1, m=4)
        assert witness is not None
        assert verify_theorem_5_3_witness(g, witness, 3, 4)

    def test_grid_d1(self):
        g = grid_graph(5, 5)
        witness = theorem_5_3_witness(g, k=5, d=1, m=4)
        assert witness is not None
        assert len(witness.removed) < 4
        reduced = g.remove_vertices(witness.removed)
        assert is_scattered(reduced, list(witness.scattered), 1)

    def test_planar_d2(self):
        g = grid_graph(6, 6)
        witness = theorem_5_3_witness(g, k=5, d=2, m=3)
        if witness is not None:
            assert verify_theorem_5_3_witness(g, witness, 5, 3)

    def test_star_needs_removal(self):
        g = star_graph(30)
        witness = theorem_5_3_witness(g, k=4, d=1, m=5)
        assert witness is not None
        assert len(witness.removed) >= 1  # the hub must go

    def test_stage_sizes_decrease(self):
        g = grid_graph(6, 6)
        witness = theorem_5_3_witness(g, k=5, d=1, m=4)
        assert witness is not None
        assert witness.stage_sizes[0] >= witness.stage_sizes[-1]

    def test_impossible_returns_none(self):
        from repro.graphtheory import complete_graph

        assert theorem_5_3_witness(complete_graph(6), k=4, d=1, m=3) is None


class TestSweep:
    def test_planar_family(self):
        # below the theorem's (astronomical) threshold small instances may
        # fail (grid 4x4 does); grids from 5x5 reliably produce witnesses
        graphs = [grid_graph(n, n) for n in (5, 6)]
        rows = theorem_5_3_sweep(graphs, k=5, d=1, m=3)
        assert all(row["found"] for row in rows)
        assert all(row["|Z|"] < 4 for row in rows)

    def test_small_instance_may_fail_gracefully(self):
        g = random_planar_like(15, seed=15)
        row = theorem_5_3_sweep([g], k=5, d=1, m=3)[0]
        assert row["found"] in (True, False)
