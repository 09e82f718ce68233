"""Unit tests for Ehrenfeucht–Fraïssé games."""

import pytest

from repro.exceptions import ValidationError
from repro.logic import (
    acyclicity_is_not_fo_up_to,
    acyclicity_separating_pair,
    ef_equivalent,
    parse_formula,
    quantifier_rank,
    satisfies,
    separating_rank,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    directed_cycle,
    directed_path,
    random_directed_graph,
    single_loop,
)


class TestBasics:
    def test_rank_zero_everything_equivalent(self):
        assert ef_equivalent(directed_cycle(3), directed_path(7), 0)

    def test_isomorphic_always_equivalent(self):
        for m in (1, 2, 3):
            assert ef_equivalent(directed_cycle(4), directed_cycle(4), m)

    def test_loop_detected_at_rank_one(self):
        assert not ef_equivalent(single_loop(), directed_path(2), 1)

    def test_sink_detected_at_rank_two(self):
        # "exists a sink" has rank 2: separates any path from any cycle
        assert ef_equivalent(directed_cycle(5), directed_path(5), 1)
        assert not ef_equivalent(directed_cycle(5), directed_path(5), 2)

    def test_c3_c4_separated_at_rank_two(self):
        assert ef_equivalent(directed_cycle(3), directed_cycle(4), 1)
        assert not ef_equivalent(directed_cycle(3), directed_cycle(4), 2)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValidationError):
            ef_equivalent(directed_cycle(3), directed_cycle(3), -1)

    def test_constants_rejected(self):
        s = directed_cycle(3).expand_with_constants({"c": 0})
        with pytest.raises(ValidationError):
            ef_equivalent(s, s, 1)


class TestEhrenfeuchtTheorem:
    """≡_m implies agreement on all sentences of quantifier rank <= m."""

    SENTENCES = [
        "exists x. E(x, x)",
        "exists x y. E(x, y)",
        "forall x. exists y. E(x, y)",
        "exists x y. (E(x, y) & E(y, x))",
        "exists x. ~(exists y. E(x, y))",
    ]

    def test_agreement_follows_equivalence(self):
        structures = [
            directed_cycle(3), directed_cycle(4), directed_path(3),
            single_loop(), random_directed_graph(3, 0.4, 1),
        ]
        for a in structures:
            for b in structures:
                for text in self.SENTENCES:
                    sentence = parse_formula(text, GRAPH_VOCABULARY)
                    m = quantifier_rank(sentence)
                    if ef_equivalent(a, b, m):
                        assert satisfies(a, sentence) == satisfies(b, sentence)


class TestSeparatingRank:
    def test_values(self):
        assert separating_rank(single_loop(), directed_path(2)) == 1
        assert separating_rank(directed_cycle(3), directed_cycle(4)) == 2

    def test_none_for_isomorphic(self):
        assert separating_rank(
            directed_cycle(3), directed_cycle(3), max_rounds=2
        ) is None


class TestAcyclicityArgument:
    def test_pair_construction(self):
        cyclic, acyclic = acyclicity_separating_pair(4)
        from repro.pebble import has_directed_cycle

        assert has_directed_cycle(cyclic)
        assert not has_directed_cycle(acyclic)

    def test_rank_rows_hold(self):
        rows = acyclicity_is_not_fo_up_to(2)
        assert [row[0] for row in rows] == [1, 2]
        assert all(row[2] for row in rows)

    def test_small_pair_distinguished(self):
        # with a too-small n the pair IS rank-2 distinguishable
        cyclic, acyclic = acyclicity_separating_pair(2)
        # (sanity only; not asserting a specific rank here)
        assert cyclic.size() == 4 and acyclic.size() == 4
