"""Conjunctive queries: canonical structures, containment, minimization,
unions, evaluation engines, and the ``CQ^k`` machinery of Section 7."""

from .._lazy import lazy_exports

_EXPORTS = {
    "conjunctive_query": ("ConjunctiveQuery", "boolean_cq"),
    "canonical": (
        "canonical_query", "canonical_query_with_tuple",
        "chandra_merlin_check", "homomorphism_witness_from_query",
    ),
    "containment": (
        "containment_verdict", "ucq_containment_verdict", "are_equivalent",
        "containment_mapping", "is_contained_in", "remove_redundant_disjuncts",
        "ucq_are_equivalent", "ucq_is_contained_in",
    ),
    "minimization": ("is_minimal", "minimization_report", "minimize"),
    "ucq": ("UnionOfConjunctiveQueries", "ucq_from_formula", "ucq_of"),
    "evaluation": (
        "JoinTree", "evaluate_naive", "evaluate_yannakakis",
        "evaluation_agrees", "gyo_reduction", "is_acyclic_cq",
    ),
    "treewidth_evaluation": (
        "evaluate_by_tree_decomposition", "query_treewidth",
        "query_variable_graph", "treewidth_evaluation_agrees",
    ),
    "cqk": (
        "canonical_structure_of_cqk", "cqk_treewidth_bound_holds",
        "parse_tree_decomposition", "path_sentence_two_variables",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ConjunctiveQuery",
    "boolean_cq",
    "canonical_query",
    "canonical_query_with_tuple",
    "chandra_merlin_check",
    "homomorphism_witness_from_query",
    "are_equivalent",
    "containment_mapping",
    "containment_verdict",
    "ucq_containment_verdict",
    "is_contained_in",
    "remove_redundant_disjuncts",
    "ucq_are_equivalent",
    "ucq_is_contained_in",
    "is_minimal",
    "minimization_report",
    "minimize",
    "UnionOfConjunctiveQueries",
    "ucq_from_formula",
    "ucq_of",
    "JoinTree",
    "evaluate_naive",
    "evaluate_yannakakis",
    "evaluation_agrees",
    "gyo_reduction",
    "is_acyclic_cq",
    "evaluate_by_tree_decomposition",
    "query_treewidth",
    "query_variable_graph",
    "treewidth_evaluation_agrees",
    "canonical_structure_of_cqk",
    "cqk_treewidth_bound_holds",
    "parse_tree_decomposition",
    "path_sentence_two_variables",
]
