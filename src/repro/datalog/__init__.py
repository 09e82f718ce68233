"""Datalog: programs, bottom-up evaluation, stage UCQs, boundedness."""

from .._lazy import lazy_exports

_EXPORTS = {
    "program": ("DatalogProgram", "Rule", "parse_program", "parse_rule"),
    "evaluation": (
        "FixpointResult", "evaluate_naive", "evaluate_semi_naive", "query",
    ),
    "stages": ("stage_ucq", "stage_ucqs", "verify_stage_against_evaluation"),
    "boundedness": (
        "BoundednessCertificate", "certificate_defines_query",
        "find_boundedness_certificate", "is_bounded_up_to",
        "rounds_to_fixpoint", "unboundedness_evidence",
    ),
    "semipositive": (
        "Literal", "SemipositiveProgram", "SemipositiveRule",
        "asymmetric_edge_program", "distinct_pair_program",
        "evaluate_semipositive", "parse_semipositive_program",
        "parse_semipositive_rule", "semipositive_breaks_hom_preservation",
    ),
    "examples": (
        "bounded_recursive_program", "bounded_two_step_program",
        "nonlinear_transitive_closure_program", "path_up_to_length_program",
        "reach_from_source_program", "same_generation_program",
        "transitive_closure_program",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "DatalogProgram",
    "Rule",
    "parse_program",
    "parse_rule",
    "FixpointResult",
    "evaluate_naive",
    "evaluate_semi_naive",
    "query",
    "stage_ucq",
    "stage_ucqs",
    "verify_stage_against_evaluation",
    "BoundednessCertificate",
    "certificate_defines_query",
    "find_boundedness_certificate",
    "is_bounded_up_to",
    "rounds_to_fixpoint",
    "unboundedness_evidence",
    "Literal",
    "SemipositiveProgram",
    "SemipositiveRule",
    "asymmetric_edge_program",
    "distinct_pair_program",
    "evaluate_semipositive",
    "parse_semipositive_program",
    "parse_semipositive_rule",
    "semipositive_breaks_hom_preservation",
    "bounded_recursive_program",
    "bounded_two_step_program",
    "nonlinear_transitive_closure_program",
    "path_up_to_length_program",
    "reach_from_source_program",
    "same_generation_program",
    "transitive_closure_program",
]
