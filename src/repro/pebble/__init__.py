"""Existential k-pebble games and the queries q(A, k) of Section 7.2."""

from .._lazy import lazy_exports

_EXPORTS = {
    "existential_game": (
        "ExistentialPebbleGame", "Position", "duplicator_wins",
        "preserves_all_cqk_sentences",
    ),
    "queries": (
        "dalmau_kolaitis_vardi_agrees", "has_directed_cycle", "pebble_query",
        "proposition_7_9_agrees",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "ExistentialPebbleGame",
    "Position",
    "duplicator_wins",
    "preserves_all_cqk_sentences",
    "dalmau_kolaitis_vardi_agrees",
    "has_directed_cycle",
    "pebble_query",
    "proposition_7_9_agrees",
]
