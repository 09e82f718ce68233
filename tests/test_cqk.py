"""Unit tests for the CQ^k machinery (Lemma 7.2, Section 7.1)."""

import pytest

from repro.cq import (
    canonical_structure_of_cqk,
    cqk_treewidth_bound_holds,
    parse_tree_decomposition,
    path_sentence_two_variables,
)
from repro.exceptions import UnsupportedFragmentError, ValidationError
from repro.logic import (
    distinct_variable_count,
    is_cqk,
    parse_formula,
    satisfies,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    directed_cycle,
    directed_path,
    gaifman_graph,
    structure_treewidth,
)


def fo(text):
    return parse_formula(text, GRAPH_VOCABULARY)


class TestPathSentences:
    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_two_variables_only(self, length):
        sentence = path_sentence_two_variables(length)
        assert distinct_variable_count(sentence) == 2
        assert is_cqk(sentence, 2)

    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    def test_defines_path_of_length(self, length):
        sentence = path_sentence_two_variables(length)
        for n in range(1, 7):
            expected = n - 1 >= length
            assert satisfies(directed_path(n), sentence) == expected

    def test_cycles_satisfy_all_lengths(self):
        for length in (1, 3, 5):
            assert satisfies(directed_cycle(3),
                             path_sentence_two_variables(length))

    def test_invalid_length(self):
        with pytest.raises(ValidationError):
            path_sentence_two_variables(0)


class TestCanonicalStructureOfCQk:
    def test_path_sentence_gives_path(self):
        structure = canonical_structure_of_cqk(path_sentence_two_variables(3))
        assert structure.size() == 4
        assert structure.num_facts() == 3
        assert structure_treewidth(structure) == 1

    def test_logically_equivalent(self):
        sentence = path_sentence_two_variables(2)
        structure = canonical_structure_of_cqk(sentence)
        from repro.cq import canonical_query

        phi = canonical_query(structure)
        for test_structure in (directed_path(2), directed_path(3),
                               directed_cycle(3), directed_path(5)):
            assert (phi.holds_in(test_structure)
                    == satisfies(test_structure, sentence))

    def test_rejects_free_variables(self):
        with pytest.raises(ValidationError):
            canonical_structure_of_cqk(fo("E(x, y)"))

    def test_rejects_disjunction(self):
        with pytest.raises(UnsupportedFragmentError):
            canonical_structure_of_cqk(
                fo("(exists x y. E(x, y)) | (exists x. E(x, x))")
            )


class TestLemma72:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 6])
    def test_treewidth_bound_for_paths(self, length):
        assert cqk_treewidth_bound_holds(path_sentence_two_variables(length))

    def test_treewidth_bound_three_variables(self):
        # a 3-variable sentence re-using variables; canonical treewidth < 3
        f = fo(
            "exists x y z. (E(x, y) & E(y, z) & E(z, x) "
            "& (exists x. (E(z, x) & exists y. E(x, y))))"
        )
        assert distinct_variable_count(f) == 3
        assert cqk_treewidth_bound_holds(f)

    def test_parse_tree_decomposition_validates(self):
        for length in (1, 2, 4):
            sentence = path_sentence_two_variables(length)
            structure, decomposition = parse_tree_decomposition(sentence)
            decomposition.validate(gaifman_graph(structure))
            k = distinct_variable_count(sentence)
            assert decomposition.width() < max(k, 1) + 1
            assert decomposition.width() <= k - 1 or structure.size() == 1

    def test_parse_tree_width_bounded_by_k_minus_one(self):
        sentence = path_sentence_two_variables(5)
        structure, decomposition = parse_tree_decomposition(sentence)
        assert decomposition.width() <= 1  # k - 1 with k = 2

    def test_vacuous_quantifier_covered(self):
        f = fo("exists x. exists y. E(y, y)")
        structure, decomposition = parse_tree_decomposition(f)
        decomposition.validate(gaifman_graph(structure))


class TestSection71Example:
    def test_c3_is_minimal_model_of_path3_with_treewidth_2(self):
        """The paper's correction: C_3 is a minimal model of the CQ^2
        path-of-length-3 sentence but has treewidth 2 >= k."""
        from repro.core import directed_cycle_is_nonwitness

        c3, treewidth = directed_cycle_is_nonwitness()
        assert treewidth == 2
        assert c3.size() == 3
