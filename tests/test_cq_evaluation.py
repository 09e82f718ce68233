"""Unit tests for the join-based CQ evaluation engines."""

import pytest

from repro.cq import (
    ConjunctiveQuery,
    evaluate_naive,
    evaluate_yannakakis,
    evaluation_agrees,
    gyo_reduction,
    is_acyclic_cq,
)
from repro.exceptions import UnsupportedFragmentError
from repro.logic import parse_formula
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    Vocabulary,
    directed_cycle,
    directed_path,
    random_directed_graph,
)


def cq(text, vocab=GRAPH_VOCABULARY):
    return ConjunctiveQuery.from_formula(parse_formula(text, vocab), vocab)


PATH_QUERY = cq("exists z. E(x, z) & E(z, y)")
TRIANGLE = cq("exists x y z. E(x,y) & E(y,z) & E(z,x)")
STAR_QUERY = cq("E(x, a) & E(x, b) & E(x, c)")


class TestNaive:
    def test_matches_hom_based(self):
        for seed in range(8):
            s = random_directed_graph(5, 0.35, seed)
            for q in (PATH_QUERY, TRIANGLE, STAR_QUERY):
                assert evaluate_naive(q, s) == q.evaluate(s)

    def test_boolean(self):
        assert evaluate_naive(TRIANGLE, directed_cycle(3)) == {()}
        assert evaluate_naive(TRIANGLE, directed_cycle(4)) == set()

    def test_empty_body(self):
        q = ConjunctiveQuery(GRAPH_VOCABULARY, (), ())
        assert evaluate_naive(q, directed_path(2)) == {()}

    def test_empty_relation_short_circuits(self):
        s = Structure(GRAPH_VOCABULARY, [0, 1], {})
        assert evaluate_naive(PATH_QUERY, s) == set()

    def test_constants_in_query(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c"])
        s = Structure(vocab, [0, 1, 2],
                      {"E": [(0, 1), (1, 2)]}, {"c": 1})
        q = ConjunctiveQuery(
            vocab, ("x",),
            (parse_formula("E(x, c)", vocab),),
        )
        assert evaluate_naive(q, s) == {(0,)}


class TestGYO:
    def test_path_query_acyclic(self):
        assert is_acyclic_cq(PATH_QUERY)
        tree = gyo_reduction(PATH_QUERY)
        assert tree is not None
        assert len(tree.roots()) == 1

    def test_triangle_cyclic(self):
        assert not is_acyclic_cq(TRIANGLE)
        assert gyo_reduction(TRIANGLE) is None

    def test_star_acyclic(self):
        assert is_acyclic_cq(STAR_QUERY)

    def test_empty_body_acyclic(self):
        assert is_acyclic_cq(ConjunctiveQuery(GRAPH_VOCABULARY, (), ()))

    def test_cycle4_query_cyclic(self):
        q = cq("exists a b c d. E(a,b) & E(b,c) & E(c,d) & E(d,a)")
        assert not is_acyclic_cq(q)

    def test_single_atom(self):
        q = cq("E(x, y)")
        tree = gyo_reduction(q)
        assert tree is not None and len(tree.atoms) == 1


class TestYannakakis:
    def test_matches_reference_on_acyclic(self):
        queries = [
            PATH_QUERY,
            STAR_QUERY,
            cq("exists z w. E(x, z) & E(z, w) & E(w, y)"),
            cq("E(x, y)"),
        ]
        for seed in range(6):
            s = random_directed_graph(5, 0.4, seed)
            for q in queries:
                assert evaluate_yannakakis(q, s) == q.evaluate(s)

    def test_rejects_cyclic(self):
        with pytest.raises(UnsupportedFragmentError):
            evaluate_yannakakis(TRIANGLE, directed_cycle(3))

    def test_boolean_acyclic(self):
        q = cq("exists x y z. E(x,y) & E(y,z)")
        assert evaluate_yannakakis(q, directed_path(3)) == {()}
        assert evaluate_yannakakis(q, directed_path(2)) == set()

    def test_dangling_tuples_filtered(self):
        # semijoin must remove tuples with no continuation
        q = cq("E(x, y) & exists z. E(y, z)")
        assert evaluate_yannakakis(q, directed_path(3)) == {(0, 1)}

    def test_higher_arity(self):
        vocab = Vocabulary({"T": 3, "P": 1})
        s = Structure(
            vocab,
            [0, 1, 2],
            {"T": [(0, 1, 2), (1, 1, 1)], "P": [(0,), (1,)]},
        )
        q = ConjunctiveQuery(
            vocab,
            ("x",),
            (
                parse_formula("T(x, y, z)", vocab),
                parse_formula("P(x)", vocab),
            ),
        )
        assert evaluate_yannakakis(q, s) == {(0,), (1,)}


class TestAgreement:
    def test_cross_engine_oracle(self):
        queries = [PATH_QUERY, TRIANGLE, STAR_QUERY, cq("exists x. E(x, x)")]
        for seed in range(5):
            s = random_directed_graph(5, 0.4, seed + 20)
            for q in queries:
                assert evaluation_agrees(q, s)
