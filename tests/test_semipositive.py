"""Unit tests for semipositive Datalog (Section 7.3)."""

import pytest

from repro.datalog import (
    asymmetric_edge_program,
    distinct_pair_program,
    evaluate_semipositive,
    parse_semipositive_program,
    parse_semipositive_rule,
    semipositive_breaks_hom_preservation,
)
from repro.exceptions import ValidationError
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    Vocabulary,
    directed_clique,
    directed_cycle,
    directed_path,
    single_loop,
)


class TestParsing:
    def test_rule_with_negation(self):
        rule = parse_semipositive_rule("H(x) <- E(x, y), ~E(y, x).")
        kinds = [lit.kind for lit in rule.body]
        assert kinds == ["pos", "neg"]

    def test_rule_with_inequality(self):
        rule = parse_semipositive_rule("H(x, y) <- E(x, y), x != y.")
        assert rule.body[1].kind == "neq"

    def test_safety_negated_vars(self):
        with pytest.raises(ValidationError):
            parse_semipositive_rule("H(x) <- E(x, x), ~E(x, z).")

    def test_safety_neq_vars(self):
        with pytest.raises(ValidationError):
            parse_semipositive_rule("H(x) <- E(x, x), x != z.")

    def test_negated_idb_rejected(self):
        with pytest.raises(ValidationError):
            parse_semipositive_program(
                """
                T(x, y) <- E(x, y).
                H(x, y) <- E(x, y), ~T(y, x).
                """,
                GRAPH_VOCABULARY,
            )

    def test_str_forms(self):
        rule = parse_semipositive_rule("H(x) <- E(x, y), ~E(y, x), x != y.")
        texts = [str(lit) for lit in rule.body]
        assert texts[1].startswith("~")
        assert "!=" in texts[2]


class TestEvaluation:
    def test_asymmetric_edges(self):
        program = asymmetric_edge_program()
        result = evaluate_semipositive(program, directed_path(3))
        assert set(result["Hit"]) == {(0,), (1,)}
        assert not evaluate_semipositive(program, single_loop())["Hit"]

    def test_symmetric_structure_empty(self):
        program = asymmetric_edge_program()
        two_cycle = Structure(GRAPH_VOCABULARY, [0, 1],
                              {"E": [(0, 1), (1, 0)]})
        assert not evaluate_semipositive(program, two_cycle)["Hit"]

    def test_inequality(self):
        program = distinct_pair_program()
        assert evaluate_semipositive(program, single_loop())["Pair"] == frozenset()
        assert evaluate_semipositive(
            program, directed_path(2))["Pair"] == frozenset({(0, 1)})

    def test_recursion_with_negation(self):
        # reach avoiding self-loops: still a fixpoint computation
        program = parse_semipositive_program(
            """
            R(x, y) <- E(x, y), ~E(y, y).
            R(x, y) <- R(x, z), E(z, y), ~E(y, y).
            """,
            GRAPH_VOCABULARY,
        )
        s = Structure(GRAPH_VOCABULARY, [0, 1, 2, 3],
                      {"E": [(0, 1), (1, 2), (2, 2), (1, 3)]})
        result = evaluate_semipositive(program, s)
        reach = set(result["R"])
        assert (0, 1) in reach and (0, 3) in reach
        assert all(y != 2 for (_, y) in reach)

    def test_complement_reachability(self):
        # reachability in the complement graph: impossible in pure Datalog
        program = parse_semipositive_program(
            """
            C(x, y) <- V(x), V(y), ~E(x, y), x != y.
            R(x, y) <- C(x, y).
            R(x, y) <- R(x, z), C(z, y).
            """,
            Vocabulary({"E": 2, "V": 1}),
        )
        vocab = Vocabulary({"E": 2, "V": 1})
        s = Structure(
            vocab, [0, 1, 2],
            {"E": [(0, 1), (1, 2), (2, 0)], "V": [(0,), (1,), (2,)]},
        )
        result = evaluate_semipositive(program, s)
        # complement of directed C3 is the reversed cycle (1,0),(2,1),(0,2);
        # its transitive closure is every ordered pair (closed walks too)
        assert len(result["R"]) == 9
        assert (0, 2) in result["R"] and (0, 0) in result["R"]


class TestSection73Boundary:
    def test_breaks_hom_preservation(self):
        assert semipositive_breaks_hom_preservation()

    def test_pure_datalog_queries_stay_preserved(self):
        """Contrast: the pure-Datalog TC query passes the sampled
        preservation check (Section 1: Datalog ⊆ hom-preserved)."""
        from repro.core import check_preserved_under_homomorphisms
        from repro.datalog import evaluate_semi_naive, transitive_closure_program

        program = transitive_closure_program()

        def boolean_tc(structure):
            return bool(evaluate_semi_naive(program, structure).relations["T"])

        samples = [directed_path(3), directed_cycle(3), single_loop(),
                   directed_clique(3)]
        assert check_preserved_under_homomorphisms(boolean_tc, samples) is None

    def test_semipositive_query_fails_preservation_check(self):
        from repro.core import check_preserved_under_homomorphisms

        program = asymmetric_edge_program()

        def boolean_hit(structure):
            return bool(evaluate_semipositive(program, structure)["Hit"])

        samples = [directed_path(2), single_loop()]
        violation = check_preserved_under_homomorphisms(boolean_hit, samples)
        assert violation is not None
