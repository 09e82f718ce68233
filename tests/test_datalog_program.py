"""Unit tests for Datalog programs and their parser."""

import pytest

from repro.datalog import (
    DatalogProgram,
    Rule,
    parse_program,
    parse_rule,
    transitive_closure_program,
    same_generation_program,
    path_up_to_length_program,
)
from repro.exceptions import ValidationError
from repro.logic import atom
from repro.structures import GRAPH_VOCABULARY


class TestRule:
    def test_parse_simple(self):
        r = parse_rule("T(x, y) <- E(x, y).")
        assert r.head == atom("T", "x", "y")
        assert r.body == (atom("E", "x", "y"),)

    def test_parse_multi_atom_body(self):
        r = parse_rule("T(x, y) <- E(x, z), T(z, y).")
        assert len(r.body) == 2

    def test_unsafe_rule_rejected(self):
        with pytest.raises(ValidationError):
            parse_rule("T(x, y) <- E(x, x).")

    def test_empty_body_ground_only(self):
        with pytest.raises(ValidationError):
            Rule(atom("T", "x"), ())

    def test_variables(self):
        r = parse_rule("T(x, y) <- E(x, z), T(z, y).")
        assert r.variables() == frozenset({"x", "y", "z"})

    def test_constants_in_rules(self):
        vocab = GRAPH_VOCABULARY.with_constants(["c"])
        r = parse_rule("T(x) <- E(x, c).", vocab)
        from repro.logic import Const

        assert r.body[0].terms[1] == Const("c")

    def test_str(self):
        r = parse_rule("T(x, y) <- E(x, y).")
        assert "T(x, y)" in str(r) and "<-" in str(r)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_rule("this is not a rule")


class TestProgram:
    def test_transitive_closure(self):
        tc = transitive_closure_program()
        assert tc.idb_predicates == ("T",)
        assert tc.edb_predicates == ("E",)
        assert tc.variable_count() == 3
        assert tc.is_k_datalog(3)
        assert not tc.is_k_datalog(2)
        assert tc.is_linear()

    def test_same_generation_not_linear_check(self):
        sg = same_generation_program()
        assert sg.is_linear()  # one SG atom per body
        assert sg.idb_arity("SG") == 2

    def test_nonlinear(self):
        p = parse_program(
            "T(x, y) <- E(x, y).\nT(x, y) <- T(x, z), T(z, y).",
            GRAPH_VOCABULARY,
        )
        assert not p.is_linear()

    def test_idb_arity_conflict_rejected(self):
        with pytest.raises(ValidationError):
            parse_program(
                "T(x, y) <- E(x, y).\nT(x) <- E(x, x).", GRAPH_VOCABULARY
            )

    def test_head_colliding_with_edb_rejected(self):
        with pytest.raises(ValidationError):
            parse_program("E(x, y) <- E(y, x).", GRAPH_VOCABULARY)

    def test_unknown_body_predicate_rejected(self):
        with pytest.raises(ValidationError):
            parse_program("T(x, y) <- Unknown(x, y).", GRAPH_VOCABULARY)

    def test_edb_arity_checked(self):
        with pytest.raises(ValidationError):
            parse_program("T(x) <- E(x).", GRAPH_VOCABULARY)

    def test_empty_program_rejected(self):
        with pytest.raises(ValidationError):
            DatalogProgram([], GRAPH_VOCABULARY)

    def test_comments_ignored(self):
        p = parse_program(
            """
            % transitive closure
            # another comment
            T(x, y) <- E(x, y).
            """,
            GRAPH_VOCABULARY,
        )
        assert len(p.rules) == 1

    def test_rules_for(self):
        tc = transitive_closure_program()
        assert len(tc.rules_for("T")) == 2
        assert tc.rules_for("Z") == []

    def test_path_program_generator(self):
        p = path_up_to_length_program(3)
        assert len(p.rules) == 3
        assert p.idb_predicates == ("P",)

    def test_str(self):
        assert "T(x, y)" in str(transitive_closure_program())
