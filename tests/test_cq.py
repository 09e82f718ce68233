"""Unit tests for ConjunctiveQuery."""

import pytest

from repro.exceptions import UnsupportedFragmentError, ValidationError
from repro.cq import ConjunctiveQuery, boolean_cq
from repro.logic import Const, atom, parse_formula, satisfies
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


class TestConstruction:
    def test_boolean(self):
        q = boolean_cq(GRAPH_VOCABULARY, [atom("E", "x", "y")])
        assert q.is_boolean() and q.arity() == 0
        assert q.variables() == ("x", "y")

    def test_head_must_be_safe(self):
        with pytest.raises(ValidationError):
            ConjunctiveQuery(GRAPH_VOCABULARY, ("z",), (atom("E", "x", "y"),))

    def test_arity_checked(self):
        with pytest.raises(ValidationError):
            ConjunctiveQuery(GRAPH_VOCABULARY, (), (atom("E", "x"),))

    def test_unknown_relation(self):
        with pytest.raises(ValidationError):
            ConjunctiveQuery(GRAPH_VOCABULARY, (), (atom("Z", "x"),))

    def test_unknown_constant(self):
        with pytest.raises(ValidationError):
            ConjunctiveQuery(
                GRAPH_VOCABULARY, (), (atom("E", "x", Const("c")),)
            )

    def test_repeated_head(self):
        q = ConjunctiveQuery(GRAPH_VOCABULARY, ("x", "x"),
                             (atom("E", "x", "y"),))
        assert q.arity() == 2


class TestFromFormula:
    def test_variables_renamed_apart(self):
        q = cq("exists x. (E(x, y) & exists x. E(y, x))")
        assert q.head == ("y",)
        assert len(q.variables()) == 3

    def test_rejects_disjunction(self):
        with pytest.raises(UnsupportedFragmentError):
            cq("E(x, y) | E(y, x)")

    def test_equality_substitution(self):
        q = cq("exists x y z. E(x, y) & y = z & E(z, x)")
        # y and z merged: only 2 variables remain
        assert len(q.variables()) == 2
        assert q.num_atoms() == 2

    def test_equality_between_free_vars(self):
        q = cq("E(x, y) & x = y")
        assert q.head == ("x", "x") or q.head == ("y", "y")
        # body uses the representative only
        assert len(q.variables()) == 1

    def test_equality_only_query_rejected(self):
        with pytest.raises(UnsupportedFragmentError):
            cq("x = y")

    def test_to_formula_round_trip(self):
        samples = [random_directed_graph(4, 0.4, s) for s in range(6)]
        q = cq("exists x. (E(x, y) & exists z. E(y, z))")
        f = q.to_formula()
        for s in samples:
            for e in s.universe:
                from repro.logic import evaluate

                direct = (e,) in q.evaluate(s)
                via_formula = evaluate(f, s, {"y": e})
                assert direct == via_formula


class TestCanonicalStructure:
    def test_elements_are_variables(self):
        q = cq("exists x y. E(x, y)")
        canon = q.canonical_structure()
        assert canon.size() == 2
        assert canon.num_facts() == 1

    def test_repeated_variable_makes_loop(self):
        q = cq("exists x. E(x, x)")
        canon = q.canonical_structure()
        assert canon.size() == 1
        element = canon.universe[0]
        assert canon.has_fact("E", (element, element))

    def test_constants_become_named_elements(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c"])
        q = ConjunctiveQuery(vocab, (), (atom("E", "x", Const("c")),))
        canon = q.canonical_structure()
        assert canon.size() == 2
        assert canon.constant("c") == ("const", "c")

    def test_frozen_structure_pins_head(self):
        q = cq("exists y. E(x, y)")
        frozen = q.frozen_structure()
        assert frozen.vocabulary.has_constant("__head_0")
        assert frozen.constant("__head_0") == ("var", "x")


class TestEvaluation:
    def test_boolean_satisfaction(self):
        q = cq("exists x y z. E(x, y) & E(y, z) & E(z, x)")
        assert q.holds_in(directed_cycle(3))
        assert not q.holds_in(directed_cycle(4))
        assert q.evaluate(directed_cycle(3)) == {()}
        assert q.evaluate(directed_cycle(4)) == set()

    def test_unary_answers(self):
        q = cq("exists y. E(x, y)")
        assert q.evaluate(directed_path(3)) == {(0,), (1,)}

    def test_binary_answers(self):
        q = cq("exists z. E(x, z) & E(z, y)")
        answers = q.evaluate(directed_path(4))
        assert answers == {(0, 2), (1, 3)}

    def test_matches_fo_semantics(self):
        samples = [random_directed_graph(4, 0.4, s) for s in range(6)]
        f = parse_formula(
            "exists x y. E(x, y) & E(y, x)", GRAPH_VOCABULARY
        )
        q = ConjunctiveQuery.from_formula(f, GRAPH_VOCABULARY)
        for s in samples:
            assert q.holds_in(s) == satisfies(s, f)

    def test_richer_vocabulary_target(self):
        # evaluating an E-query on a structure with extra relations
        vocab = Vocabulary({"E": 2, "P": 1})
        s = Structure(vocab, [0, 1], {"E": [(0, 1)], "P": [(0,)]})
        q = cq("exists x y. E(x, y)")
        assert q.holds_in(s)

    def test_str(self):
        q = cq("exists y. E(x, y)")
        text = str(q)
        assert "E(x," in text and "exists" in text
