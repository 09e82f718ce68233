"""Graph-theoretic substrate: graphs, treewidth, minors, scattered sets.

Everything in Section 2.1 and the combinatorial machinery of Sections 4-5
of the paper: simple graphs, tree decompositions, exact and heuristic
treewidth, minor containment, planarity (Wagner), ``d``-scattered sets,
the Erdős–Rado Sunflower Lemma, and Ramsey bounds/witnesses.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "graphs": (
        "Graph", "all_pairs_distances", "bfs_distances", "bipartition",
        "connected_components", "is_bipartite", "is_connected", "is_forest",
        "is_tree", "neighborhood", "power_graph",
    ),
    "generators": (
        "bicycle_graph", "binary_tree", "caterpillar",
        "complete_bipartite_graph", "complete_graph", "cycle_graph",
        "degree3_clique_expansion", "degree3_clique_expansion_model",
        "empty_graph", "grid_graph", "k_tree", "path_graph", "random_graph",
        "random_planar_like", "random_regular_graph", "random_tree",
        "spider_graph", "star_graph", "wheel_graph",
    ),
    "tree_decomposition": (
        "TreeDecomposition", "decomposition_from_elimination_order",
        "elimination_order_width", "path_of_bags",
    ),
    "treewidth": (
        "TreewidthResult", "has_treewidth_less_than", "min_degree_order",
        "min_fill_order", "treewidth_decomposition", "treewidth_exact",
        "treewidth_lower_bound", "treewidth_upper_bound",
        "treewidth_with_fallback",
    ),
    "minors": (
        "MinorModel", "clique_minor_in_bipartite", "excludes_clique_minor",
        "find_minor_model", "hadwiger_number", "has_clique_minor", "has_minor",
        "is_planar", "subgraph_isomorphism", "verify_minor_model",
    ),
    "planarity": (
        "biconnected_components", "is_planar_by_rotations", "is_planar_exact",
        "rotation_system_count",
    ),
    "scattered": (
        "find_removal_witness", "find_scattered_set", "greedy_scattered_set",
        "is_scattered", "max_scattered_set", "scattered_number",
        "scattered_profile", "verify_removal_witness",
    ),
    "sunflower": (
        "Sunflower", "find_sunflower", "is_sunflower", "sunflower_bound",
        "sunflower_free_family",
    ),
    "ramsey": (
        "find_monochromatic_subset", "is_monochromatic", "paper_r",
        "ramsey_bound", "ramsey_graph_witness",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

# Eager: ``nice_decomposition`` names both a submodule and a function.  Once
# the submodule is imported (the engine's DP path does), the import
# system rebinds the package attribute to the module, and a lazy
# binding would never run; importing here keeps the function.
from .nice_decomposition import (  # noqa: E402
    NiceDecomposition,
    NiceNode,
    count_proper_colorings_treewidth,
    is_c_colorable_treewidth,
    make_nice,
    max_independent_set_treewidth,
    nice_decomposition,
)

__all__ = [
    "Graph",
    "TreeDecomposition",
    "MinorModel",
    "NiceDecomposition",
    "NiceNode",
    "count_proper_colorings_treewidth",
    "is_c_colorable_treewidth",
    "make_nice",
    "max_independent_set_treewidth",
    "nice_decomposition",
    "Sunflower",
    "all_pairs_distances",
    "bfs_distances",
    "bipartition",
    "connected_components",
    "is_bipartite",
    "is_connected",
    "is_forest",
    "is_tree",
    "neighborhood",
    "power_graph",
    "bicycle_graph",
    "binary_tree",
    "caterpillar",
    "complete_bipartite_graph",
    "complete_graph",
    "cycle_graph",
    "degree3_clique_expansion",
    "degree3_clique_expansion_model",
    "empty_graph",
    "grid_graph",
    "k_tree",
    "path_graph",
    "random_graph",
    "random_planar_like",
    "random_regular_graph",
    "random_tree",
    "spider_graph",
    "star_graph",
    "wheel_graph",
    "decomposition_from_elimination_order",
    "elimination_order_width",
    "path_of_bags",
    "has_treewidth_less_than",
    "min_degree_order",
    "min_fill_order",
    "treewidth_decomposition",
    "treewidth_exact",
    "treewidth_lower_bound",
    "treewidth_upper_bound",
    "treewidth_with_fallback",
    "TreewidthResult",
    "clique_minor_in_bipartite",
    "excludes_clique_minor",
    "find_minor_model",
    "hadwiger_number",
    "has_clique_minor",
    "has_minor",
    "is_planar",
    "subgraph_isomorphism",
    "verify_minor_model",
    "biconnected_components",
    "is_planar_by_rotations",
    "is_planar_exact",
    "rotation_system_count",
    "find_removal_witness",
    "find_scattered_set",
    "greedy_scattered_set",
    "is_scattered",
    "max_scattered_set",
    "scattered_number",
    "scattered_profile",
    "verify_removal_witness",
    "find_sunflower",
    "is_sunflower",
    "sunflower_bound",
    "sunflower_free_family",
    "find_monochromatic_subset",
    "is_monochromatic",
    "paper_r",
    "ramsey_bound",
    "ramsey_graph_witness",
]
