"""Relational structures: vocabularies, structures, operations, Gaifman graphs.

The database substrate of the reproduction (Section 2.1 of the paper).
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "vocabulary": ("GRAPH_VOCABULARY", "Vocabulary"),
    "structure": ("Structure",),
    "operations": (
        "direct_product", "disjoint_union", "homomorphic_image",
        "injection_into_union", "merge_on_shared_universe",
    ),
    "gaifman": (
        "gaifman_graph", "graph_as_structure", "structure_as_graph",
        "structure_degree", "structure_treewidth",
        "structure_treewidth_upper_bound",
    ),
    "generators": (
        "bicycle_structure", "bicycle_with_hub_constant", "clique_structure",
        "directed_clique", "directed_cycle", "directed_path", "grid_structure",
        "path_with_random_chords", "random_directed_graph", "random_structure",
        "single_edge", "single_loop", "star_structure",
        "two_coloring_structure", "undirected_cycle", "undirected_path",
        "wheel_structure",
    ),
    "enumeration": (
        "are_isomorphic_small", "canonical_form", "connected_structures",
        "enumerate_structures", "enumerate_structures_up_to",
    ),
    "io": (
        "load_structure", "save_structure", "structure_from_dict",
        "structure_from_json", "structure_to_dict", "structure_to_json",
        "vocabulary_from_dict", "vocabulary_to_dict",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "GRAPH_VOCABULARY",
    "Vocabulary",
    "Structure",
    "direct_product",
    "disjoint_union",
    "homomorphic_image",
    "injection_into_union",
    "merge_on_shared_universe",
    "gaifman_graph",
    "graph_as_structure",
    "structure_as_graph",
    "structure_degree",
    "structure_treewidth",
    "structure_treewidth_upper_bound",
    "bicycle_structure",
    "bicycle_with_hub_constant",
    "clique_structure",
    "directed_clique",
    "directed_cycle",
    "directed_path",
    "grid_structure",
    "path_with_random_chords",
    "random_directed_graph",
    "random_structure",
    "single_edge",
    "single_loop",
    "star_structure",
    "two_coloring_structure",
    "undirected_cycle",
    "undirected_path",
    "wheel_structure",
    "are_isomorphic_small",
    "canonical_form",
    "connected_structures",
    "enumerate_structures",
    "enumerate_structures_up_to",
    "load_structure",
    "save_structure",
    "structure_from_dict",
    "structure_from_json",
    "structure_to_dict",
    "structure_to_json",
    "vocabulary_from_dict",
    "vocabulary_to_dict",
]
