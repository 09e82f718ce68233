"""Homomorphisms, isomorphisms, retractions and cores of finite structures."""

from .._lazy import lazy_exports

_EXPORTS = {
    "search": (
        "Homomorphism", "HomomorphismSearch", "count_homomorphisms",
        "find_homomorphism", "find_homomorphism_avoiding",
        "find_injective_homomorphism", "has_homomorphism",
        "homomorphism_verdict", "is_homomorphism", "iter_homomorphisms",
    ),
    "counting": (
        "automorphism_count", "endomorphism_count",
        "lovasz_agrees_with_isomorphism", "lovasz_distinguishes",
        "lovasz_vector", "surjective_hom_count",
    ),
    "isomorphism": (
        "are_isomorphic", "dedup_up_to_isomorphism", "find_isomorphism",
        "is_automorphism",
    ),
    "equivalence": (
        "are_homomorphically_equivalent", "find_retraction",
        "homomorphism_preorder_classes", "is_retract",
    ),
    "cores": (
        "compute_core", "compute_core_with_map", "core_by_retractions",
        "core_certificate", "find_proper_retraction", "have_same_core",
        "is_core",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "Homomorphism",
    "HomomorphismSearch",
    "count_homomorphisms",
    "find_homomorphism",
    "find_homomorphism_avoiding",
    "find_injective_homomorphism",
    "has_homomorphism",
    "homomorphism_verdict",
    "is_homomorphism",
    "iter_homomorphisms",
    "automorphism_count",
    "endomorphism_count",
    "lovasz_agrees_with_isomorphism",
    "lovasz_distinguishes",
    "lovasz_vector",
    "surjective_hom_count",
    "are_isomorphic",
    "dedup_up_to_isomorphism",
    "find_isomorphism",
    "is_automorphism",
    "are_homomorphically_equivalent",
    "find_retraction",
    "homomorphism_preorder_classes",
    "is_retract",
    "compute_core",
    "compute_core_with_map",
    "core_by_retractions",
    "core_certificate",
    "find_proper_retraction",
    "have_same_core",
    "is_core",
]
