"""repro — homomorphism preservation on restricted classes of finite structures.

A full, executable reproduction of Atserias, Dawar and Kolaitis,
*"On Preservation under Homomorphisms and Unions of Conjunctive
Queries"* (PODS 2004 / JACM 2006): relational structures, homomorphisms
and cores, conjunctive queries and their unions, Datalog with stage
unfolding and boundedness certificates, treewidth / minors / sunflowers
/ Ramsey machinery, existential pebble games, and the paper's
minimal-model rewriting pipeline with constructive witnesses for every
lemma.

Quickstart
----------
>>> from repro.structures import GRAPH_VOCABULARY, directed_cycle
>>> from repro.cq import canonical_query
>>> phi = canonical_query(directed_cycle(3))
>>> phi.holds_in(directed_cycle(6))
False

Subpackages
-----------
``repro.structures``
    Vocabularies, finite structures, Gaifman graphs, generators.
``repro.homomorphism``
    Homomorphism/isomorphism search, retractions, cores.
``repro.engine``
    The memoized, instrumented hom-solver engine (fingerprints, LRU
    memo cache, counters/timers behind ``python -m repro stats``).
``repro.incremental``
    The incremental engine: delta edits over mutating structures,
    fine-grained cache invalidation, warm-start re-decision and DRed
    Datalog maintenance.
``repro.logic``
    First-order syntax, parser, semantics, fragments, normal forms.
``repro.cq``
    Conjunctive queries, canonical structures, containment, UCQs,
    evaluation engines, CQ^k.
``repro.datalog``
    Programs, naive/semi-naive evaluation, stage UCQs, boundedness.
``repro.graphtheory``
    Graphs, treewidth, minors, scattered sets, sunflowers, Ramsey.
``repro.pebble``
    Existential k-pebble games and the queries q(A, k).
``repro.resources``
    Resource governance: deadlines, budgets, cooperative cancellation,
    trivalent verdicts, resumable sweep journaling.
``repro.core``
    The paper's preservation theorems, executable.
``repro.dataexchange``
    Schema mappings, the chase, core solutions (the cited application).
"""

__version__ = "1.0.0"

from ._lazy import lazy_exports
from .exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    InvariantViolationError,
    OperationCancelledError,
    ReproError,
    ResourceError,
    UnsupportedFragmentError,
    ValidationError,
)

# No table: each subpackage is imported on first access to
# ``repro.<name>``, so ``import repro`` loads only the exceptions.
__getattr__, __dir__ = lazy_exports(__name__, globals(), {})

__all__ = [
    "core",
    "cq",
    "dataexchange",
    "datalog",
    "graphtheory",
    "homomorphism",
    "logic",
    "pebble",
    "resources",
    "structures",
    "BudgetExceededError",
    "DeadlineExceededError",
    "InvariantViolationError",
    "OperationCancelledError",
    "ReproError",
    "ResourceError",
    "UnsupportedFragmentError",
    "ValidationError",
    "__version__",
]
