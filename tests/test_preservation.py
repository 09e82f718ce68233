"""Unit tests for the preservation checks and the FO -> UCQ rewriting."""

import pytest

from repro.core import (
    bounded_degree_class,
    check_preserved_under_homomorphisms,
    rewrite_to_ucq,
    rewrite_to_ucq_from_seeds,
    ucq_equivalent_to_query_on,
)
from repro.logic import parse_formula
from repro.structures import (
    GRAPH_VOCABULARY,
    directed_cycle,
    directed_path,
    random_directed_graph,
    single_loop,
)


def fo(text):
    return parse_formula(text, GRAPH_VOCABULARY)


WALK3 = fo("exists x y z. E(x, y) & E(y, z) & E(z, x)")
HAS_EDGE = fo("exists x y. E(x, y)")
TOTAL = fo("forall x. exists y. E(x, y)")

SAMPLES = [random_directed_graph(4, 0.35, s) for s in range(10)]
SAMPLES += [directed_cycle(3), directed_path(4), single_loop()]


class TestPreservationCheck:
    def test_ep_queries_pass(self):
        for query in (WALK3, HAS_EDGE):
            assert check_preserved_under_homomorphisms(query, SAMPLES) is None

    def test_totality_violation_found(self):
        # C3 is total; C3 plus a dangling out-vertexless element is not,
        # and the inclusion is a homomorphism.
        extended = directed_cycle(3).with_element(9).with_fact("E", (0, 9))
        violation = check_preserved_under_homomorphisms(
            TOTAL, [directed_cycle(3), extended]
        )
        assert violation is not None
        assert violation.source.size() == 3

    def test_negated_query_violation(self):
        no_loop = fo("~(exists x. E(x, x))")
        violation = check_preserved_under_homomorphisms(
            no_loop, [directed_cycle(3), single_loop()]
        )
        assert violation is not None

    def test_violation_carries_witness(self):
        from repro.homomorphism import is_homomorphism

        extended = directed_cycle(3).with_element(9).with_fact("E", (0, 9))
        violation = check_preserved_under_homomorphisms(
            TOTAL, [directed_cycle(3), extended]
        )
        assert is_homomorphism(
            violation.source, violation.target, violation.homomorphism
        )


class TestRewriting:
    def test_walk3_rewrites(self):
        result = rewrite_to_ucq(
            WALK3, GRAPH_VOCABULARY, max_size=3,
            verification_sample=SAMPLES,
        )
        assert result.mode == "exact"
        assert len(result.minimal_models) == 2
        assert result.verified_on == len(SAMPLES)
        # minimized union: the loop's query subsumes under the triangle's
        assert len(result.ucq) >= 1

    def test_rewritten_ucq_equivalent(self):
        result = rewrite_to_ucq(WALK3, GRAPH_VOCABULARY, max_size=3)
        assert ucq_equivalent_to_query_on(result.ucq, WALK3, SAMPLES)

    def test_has_edge_rewrites(self):
        result = rewrite_to_ucq(
            HAS_EDGE, GRAPH_VOCABULARY, max_size=2,
            verification_sample=SAMPLES,
        )
        assert ucq_equivalent_to_query_on(result.ucq, HAS_EDGE, SAMPLES)
        # minimized: the single edge subsumes the loop
        assert len(result.ucq) == 1

    def test_cap_too_small_detected(self):
        # minimal model of WALK3 has 3 elements; cap 2 misses the triangle
        with pytest.raises(AssertionError):
            rewrite_to_ucq(
                WALK3, GRAPH_VOCABULARY, max_size=2,
                verification_sample=[directed_cycle(3)],
            )

    def test_restricted_class(self):
        cls = bounded_degree_class(2)
        result = rewrite_to_ucq(
            WALK3, GRAPH_VOCABULARY, structure_class=cls, max_size=3,
            verification_sample=[s for s in SAMPLES if cls.contains(s)],
        )
        assert len(result.minimal_models) == 2

    def test_summary_text(self):
        result = rewrite_to_ucq(HAS_EDGE, GRAPH_VOCABULARY, max_size=2)
        assert "minimal models" in result.summary()


class TestSeedsMode:
    def test_seeds_rewriting(self):
        seeds = [directed_cycle(3), single_loop(), directed_cycle(6),
                 random_directed_graph(5, 0.5, 9)]
        result = rewrite_to_ucq_from_seeds(
            WALK3, seeds, GRAPH_VOCABULARY, verification_sample=SAMPLES
        )
        assert result.mode == "seeds"
        assert ucq_equivalent_to_query_on(result.ucq, WALK3, SAMPLES)

    def test_seeds_mode_is_sound_under_approximation(self):
        # with only the loop as seed, the UCQ misses triangle-only models
        result = rewrite_to_ucq_from_seeds(
            WALK3, [single_loop()], GRAPH_VOCABULARY
        )
        assert len(result.ucq) == 1
        assert not result.ucq.holds_in(directed_cycle(3))
        assert result.ucq.holds_in(single_loop())
