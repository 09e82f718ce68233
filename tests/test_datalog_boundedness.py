"""Unit tests for boundedness certificates (Theorem 7.5 / experiment E8)."""

from repro.datalog import (
    bounded_recursive_program,
    bounded_two_step_program,
    certificate_defines_query,
    find_boundedness_certificate,
    is_bounded_up_to,
    parse_program,
    rounds_to_fixpoint,
    transitive_closure_program,
    unboundedness_evidence,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    directed_cycle,
    directed_path,
    random_directed_graph,
)


class TestBoundedPrograms:
    def test_two_step_certificate(self):
        cert = find_boundedness_certificate(bounded_two_step_program(), "R")
        assert cert is not None
        assert cert.stage == 1
        assert len(cert.query) == 2

    def test_recursive_but_bounded(self):
        cert = find_boundedness_certificate(bounded_recursive_program(), "P")
        assert cert is not None
        assert cert.stage <= 2

    def test_certificate_defines_query(self):
        program = bounded_recursive_program()
        cert = find_boundedness_certificate(program, "P")
        samples = [random_directed_graph(4, 0.4, s) for s in range(6)]
        samples += [directed_cycle(3), directed_path(4)]
        assert certificate_defines_query(cert, program, samples)

    def test_redundant_recursion_detected(self):
        # recursive rule subsumed by the base rule
        program = parse_program(
            """
            Q(x, y) <- E(x, y).
            Q(x, y) <- Q(x, y), E(x, y).
            """,
            GRAPH_VOCABULARY,
        )
        cert = find_boundedness_certificate(program, "Q")
        assert cert is not None and cert.stage <= 2

    def test_is_bounded_up_to(self):
        assert is_bounded_up_to(bounded_two_step_program(), "R")
        assert not is_bounded_up_to(transitive_closure_program(), "T",
                                    max_stage=4)


class TestUnboundedPrograms:
    def test_tc_has_no_small_certificate(self):
        cert = find_boundedness_certificate(
            transitive_closure_program(), "T", max_stage=4
        )
        assert cert is None

    def test_unboundedness_evidence_grows(self):
        rounds = unboundedness_evidence(
            transitive_closure_program(), directed_path, [2, 4, 6, 8]
        )
        assert rounds == sorted(rounds)
        assert rounds[-1] > rounds[0]

    def test_rounds_on_path(self):
        assert rounds_to_fixpoint(
            transitive_closure_program(), directed_path(7)
        ) == 6
