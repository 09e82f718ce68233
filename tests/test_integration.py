"""Integration tests: full cross-module pipelines from the paper.

Each test runs one of the experiments end-to-end at a small scale,
crossing at least three subpackages.
"""

from repro.core import (
    bicycle_sweep,
    bounded_treewidth_class,
    check_preserved_under_homomorphisms,
    finite_vcqk,
    lemma_4_2_witness,
    lemma_7_3_witness,
    minimal_models_are_cores,
    rewrite_to_ucq,
    ucq_equivalent_to_query_on,
)
from repro.cq import path_sentence_two_variables, ucq_from_formula
from repro.datalog import (
    bounded_recursive_program,
    certificate_defines_query,
    find_boundedness_certificate,
    transitive_closure_program,
    unboundedness_evidence,
)
from repro.graphtheory import random_tree, star_graph, treewidth_exact
from repro.homomorphism import has_homomorphism
from repro.logic import parse_formula
from repro.pebble import duplicator_wins, proposition_7_9_agrees
from repro.structures import (
    GRAPH_VOCABULARY,
    directed_cycle,
    directed_path,
    gaifman_graph,
    graph_as_structure,
    random_directed_graph,
    single_loop,
)


def fo(text):
    return parse_formula(text, GRAPH_VOCABULARY)


class TestRewritingPipelineE6:
    """FO sentence -> preservation check -> minimal models -> UCQ -> verify."""

    def test_full_pipeline_on_t2(self):
        query = fo("exists x y z. E(x, y) & E(y, z) & E(z, x)")
        samples = [random_directed_graph(4, 0.35, s) for s in range(8)]
        samples += [directed_cycle(3), directed_path(4), single_loop()]

        # 1. sampled preservation check passes
        assert check_preserved_under_homomorphisms(query, samples) is None

        # 2. rewrite on the full class and on T(3)
        t3 = bounded_treewidth_class(3)
        result = rewrite_to_ucq(
            query, GRAPH_VOCABULARY, structure_class=t3, max_size=3,
            verification_sample=[s for s in samples if t3.contains(s)],
        )

        # 3. minimal models are cores (Section 6.2's observation)
        assert minimal_models_are_cores(result.minimal_models)

        # 4. the UCQ agrees with the query everywhere we can check
        members = [s for s in samples if t3.contains(s)]
        assert ucq_equivalent_to_query_on(result.ucq, query, members)

    def test_ep_input_round_trips(self):
        """An EP sentence rewritten through minimal models stays equivalent
        to its direct UCQ normal form."""
        formula = fo("exists x. (E(x, x) | exists y. (E(x, y) & E(y, x)))")
        direct = ucq_from_formula(formula, GRAPH_VOCABULARY)
        via_models = rewrite_to_ucq(formula, GRAPH_VOCABULARY, max_size=2)
        assert direct.is_equivalent_to(via_models.ucq)


class TestDatalogPipelineE8:
    """Theorem 7.5 in action: certificates vs stage growth."""

    def test_bounded_side(self):
        program = bounded_recursive_program()
        cert = find_boundedness_certificate(program, "P")
        assert cert is not None
        samples = [random_directed_graph(4, 0.4, s) for s in range(5)]
        assert certificate_defines_query(cert, program, samples)

    def test_unbounded_side(self):
        tc = transitive_closure_program()
        assert find_boundedness_certificate(tc, "T", max_stage=3) is None
        rounds = unboundedness_evidence(tc, directed_path, [3, 5, 7])
        assert rounds[-1] > rounds[0]

    def test_stages_evaluate_correctly_along_the_way(self):
        from repro.datalog import verify_stage_against_evaluation

        tc = transitive_closure_program()
        for m in (1, 2, 3):
            assert verify_stage_against_evaluation(
                tc, directed_path(5), "T", m
            )


class TestPebblePipelineE9E11:
    def test_proposition_7_9_sweep(self):
        for n in (3, 4, 5):
            assert proposition_7_9_agrees(directed_path(n))
            assert proposition_7_9_agrees(directed_cycle(n))

    def test_pebble_game_vs_cqk_sentences(self):
        """Theorem 7.6 sampled: game outcome == CQ^2 sentence transfer."""
        from repro.logic import satisfies

        structures = [directed_path(n) for n in (2, 3, 4)]
        structures += [directed_cycle(3), directed_cycle(4)]
        sentences = [path_sentence_two_variables(n) for n in (1, 2, 3)]
        for a in structures:
            for b in structures:
                game = duplicator_wins(a, b, 2)
                transfer = all(
                    satisfies(b, f) for f in sentences if satisfies(a, f)
                )
                # game win implies sentence transfer (soundness direction)
                if game:
                    assert transfer


class TestLemma42PipelineE3:
    def test_treewidth_pipeline(self):
        """Graph family -> exact treewidth -> Lemma 4.2 witness -> verify."""
        for n in (20, 30):
            g = random_tree(n, seed=n)
            assert treewidth_exact(g) == 1
            witness = lemma_4_2_witness(g, 2, 1, 4)
            assert witness is not None

    def test_structure_level_round_trip(self):
        g = star_graph(20)
        s = graph_as_structure(g)
        assert treewidth_exact(gaifman_graph(s)) == 1
        witness = lemma_4_2_witness(gaifman_graph(s), 2, 2, 5)
        assert witness is not None


class TestSection62PipelineE7:
    def test_bicycles_end_to_end(self):
        reports = bicycle_sweep([5, 7])
        assert [r.core_degree for r in reports] == [3, 3]
        assert [r.expansion_core_degree for r in reports] == [5, 7]


class TestSection7PipelineE10:
    def test_lemma_7_3_with_homomorphism_check(self):
        sentence = finite_vcqk(
            [path_sentence_two_variables(n) for n in (1, 2, 3)], 2
        )
        target = directed_cycle(4)
        witness = lemma_7_3_witness(sentence, target)
        assert witness.treewidth < 2
        assert has_homomorphism(witness.minimal_model, target)
