"""The named sweep registry: instances + tasks for parallel execution.

Each :class:`Sweep` pairs a deterministic instance generator with a
top-level (hence picklable) task function, so the same definition backs
``repro sweep <name> --workers N``, the benchmark script modes and the
tests.  Specs are plain ``(kind, params)`` tuples — workers rebuild the
actual structures/graphs locally, which keeps submissions tiny and
start-method-agnostic.

The registered sweeps:

``hom``
    The recurring homomorphism workload (odd-cycle colorings, path
    embeddings, chorded-path refutations, random pairs) decided through
    the governed engine; records carry the trivalent verdict plus the
    solver counters consumed by the instance.
``hom-batch``
    Containment-shaped instances — one target, many sources — decided
    through the engine's batched solve path
    (:meth:`~repro.engine.engine.HomEngine.batch`), so each instance
    compiles its target once and shares it across every query.
``cores``
    Core computations over the collapsing/rigid families of
    ``bench_p02``.
``treewidth``
    The governed treewidth sweep of ``bench_p03`` (exact with graceful
    degradation to the heuristic upper bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from ..exceptions import UnknownInstanceError, ValidationError
from ..structures.structure import Structure

Spec = Tuple[str, Tuple[Any, ...]]


# ----------------------------------------------------------------------
# Spec -> object builders (run inside workers; must stay top-level)
# ----------------------------------------------------------------------
def build_structure(spec: Spec) -> Structure:
    """Rebuild one structure from its picklable spec."""
    from ..structures import (
        bicycle_structure,
        clique_structure,
        directed_path,
        grid_structure,
        path_with_random_chords,
        random_directed_graph,
        undirected_cycle,
        undirected_path,
    )

    kind, params = spec
    builders: Dict[str, Callable[..., Structure]] = {
        "directed-path": directed_path,
        "undirected-path": undirected_path,
        "undirected-cycle": undirected_cycle,
        "clique": clique_structure,
        "grid": grid_structure,
        "bicycle": bicycle_structure,
        "chorded-path": path_with_random_chords,
        "random-digraph": random_directed_graph,
    }
    if kind not in builders:
        raise ValidationError(f"unknown structure spec kind {kind!r}")
    return builders[kind](*params)


def build_graph(spec: Spec):
    """Rebuild one graph from its picklable spec."""
    from ..graphtheory import (
        grid_graph,
        k_tree,
        random_graph,
        random_tree,
    )

    kind, params = spec
    builders = {
        "grid": grid_graph,
        "tree": random_tree,
        "random": random_graph,
        "2tree": lambda n, seed: k_tree(2, n, seed=seed),
    }
    if kind not in builders:
        raise ValidationError(f"unknown graph spec kind {kind!r}")
    return builders[kind](*params)


# ----------------------------------------------------------------------
# Tasks (top-level for picklability)
# ----------------------------------------------------------------------
def hom_task(spec: Tuple[Spec, Spec]) -> Dict[str, Any]:
    """Decide one homomorphism instance through the governed engine."""
    from ..engine import get_engine

    source_spec, target_spec = spec
    source = build_structure(source_spec)
    target = build_structure(target_spec)
    engine = get_engine()
    before_nodes = engine.stats.nodes
    before_backtracks = engine.stats.backtracks
    verdict = engine.decide_homomorphism(source, target)
    return {
        "source": list(source_spec),
        "target": list(target_spec),
        "verdict": verdict.value.value,
        "reason": verdict.reason,
        "nodes": engine.stats.nodes - before_nodes,
        "backtracks": engine.stats.backtracks - before_backtracks,
    }


def hom_batch_task(spec: Tuple[Spec, List[Spec]]) -> Dict[str, Any]:
    """Decide one target's whole query batch through the batched engine
    path.

    ``spec`` is ``(target_spec, [source_spec, ...])``.  The queries run
    through one :meth:`~repro.engine.engine.HomEngine.batch` handle, so
    the target compiles once; each query is individually governed — a
    deadline/budget trip turns that query's verdict UNKNOWN without
    poisoning the rest of the batch.
    """
    from ..engine import get_engine

    target_spec, source_specs = spec
    batch = get_engine().batch(build_structure(target_spec))
    verdicts = [
        batch.decide(build_structure(source_spec)).value.value
        for source_spec in source_specs
    ]
    return {
        "target": list(target_spec),
        "queries": len(source_specs),
        "found": verdicts.count("TRUE"),
        "verdicts": verdicts,
    }


def core_task(spec: Spec) -> Dict[str, Any]:
    """Compute one core through the governed engine."""
    from ..engine import get_engine

    structure = build_structure(spec)
    core = get_engine().core(structure)
    return {
        "structure": list(spec),
        "size": structure.size(),
        "core_size": core.size(),
        "facts": structure.num_facts(),
        "core_facts": core.num_facts(),
    }


def treewidth_task(spec: Spec, limit: int = 40) -> Dict[str, Any]:
    """Exact treewidth with graceful degradation (the ambient governor
    installed by the executor decides when to degrade)."""
    from ..graphtheory import treewidth_with_fallback

    graph = build_graph(spec)
    result = treewidth_with_fallback(graph, limit=limit)
    return {
        "graph": list(spec),
        "width": result.width,
        "exact": result.exact,
        "method": result.method,
        "reason": result.reason,
    }


# ----------------------------------------------------------------------
# Instance grids
# ----------------------------------------------------------------------
def hom_instances() -> List[Tuple[str, Tuple[Spec, Spec]]]:
    """The recurring hom workload plus medium-hardness refutations."""
    instances: List[Tuple[str, Tuple[Spec, Spec]]] = []
    for n in (7, 9, 11):
        instances.append((
            f"odd-cycle-{n}-vs-k2",
            (("undirected-cycle", (n,)), ("undirected-path", (2,))),
        ))
    for n in (8, 16, 32):
        instances.append((
            f"path6-into-random-{n}",
            (("directed-path", (6,)), ("random-digraph", (n, 0.3, n))),
        ))
    for size in (4, 6, 8):
        instances.append((
            f"random-pair-{size}",
            (
                ("random-digraph", (size, 0.25, 1)),
                ("random-digraph", (size + 2, 0.35, 2)),
            ),
        ))
    for n, chords, seed in ((40, 8, 1), (50, 10, 3), (60, 12, 5)):
        instances.append((
            f"chorded-{n}-{chords}-s{seed}-vs-c7",
            (
                ("chorded-path", (n, chords, seed)),
                ("undirected-cycle", (7,)),
            ),
        ))
    return instances


def hom_batch_instances() -> List[Tuple[str, Tuple[Spec, List[Spec]]]]:
    """Containment-shaped batches: one target, many sources each."""
    instances: List[Tuple[str, Tuple[Spec, List[Spec]]]] = []
    instances.append((
        "k2-colorability",
        (
            ("undirected-path", (2,)),
            [("undirected-cycle", (n,)) for n in (3, 5, 7, 9, 11)],
        ),
    ))
    instances.append((
        "c7-windings",
        (
            ("undirected-cycle", (7,)),
            [("undirected-cycle", (n,)) for n in (7, 9, 14, 21)]
            + [("chorded-path", (20, 4, 1))],
        ),
    ))
    instances.append((
        "random-16-embeddings",
        (
            ("random-digraph", (16, 0.3, 16)),
            [("directed-path", (k,)) for k in (2, 3, 4, 5, 6)]
            + [("random-digraph", (5, 0.25, 1))],
        ),
    ))
    return instances


def core_instances() -> List[Tuple[str, Spec]]:
    """The collapsing/rigid core families of ``bench_p02``."""
    instances: List[Tuple[str, Spec]] = []
    for n in (6, 10, 14):
        instances.append((f"path-{n}", ("undirected-path", (n,))))
    for rows, cols in ((2, 3), (3, 3), (3, 4)):
        instances.append((f"grid-{rows}x{cols}", ("grid", (rows, cols))))
    for n in (5, 7):
        instances.append((f"bicycle-{n}", ("bicycle", (n,))))
    for n in (5, 7, 9):
        instances.append((f"rigid-cycle-{n}", ("undirected-cycle", (n,))))
    return instances


def treewidth_instances() -> List[Tuple[str, Spec]]:
    """The graph families of the ``bench_p03`` governed sweep."""
    instances: List[Tuple[str, Spec]] = []
    for rows, cols in ((3, 3), (3, 4), (4, 4), (4, 5)):
        instances.append((f"grid-{rows}x{cols}", ("grid", (rows, cols))))
    for n in (20, 40):
        instances.append((f"tree-{n}", ("tree", (n, n))))
    for n in (8, 10, 12, 14):
        instances.append((f"random-{n}", ("random", (n, 0.35, n))))
    for n in (25, 45):
        instances.append((f"2tree-{n}", ("2tree", (n, n))))
    return instances


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Sweep:
    """One named sweep: a grid of instances plus its task function."""

    name: str
    description: str
    instances: Callable[[], List[Tuple[str, Any]]]
    task: Callable[[Any], Dict[str, Any]]


SWEEPS: Dict[str, Sweep] = {
    "hom": Sweep(
        "hom",
        "governed homomorphism decisions over the recurring workload",
        hom_instances,
        hom_task,
    ),
    "hom-batch": Sweep(
        "hom-batch",
        "batched multi-query homomorphism decisions (one target, many "
        "sources per instance)",
        hom_batch_instances,
        hom_batch_task,
    ),
    "cores": Sweep(
        "cores",
        "core computations over collapsing and rigid families",
        core_instances,
        core_task,
    ),
    "treewidth": Sweep(
        "treewidth",
        "exact treewidth with graceful degradation (bench_p03 grid)",
        treewidth_instances,
        treewidth_task,
    ),
}


def get_sweep(name: str) -> Sweep:
    """Look up a registered sweep by name."""
    try:
        return SWEEPS[name]
    except KeyError:
        raise ValidationError(
            f"unknown sweep {name!r}; registered: {sorted(SWEEPS)}"
        ) from None


def filter_instances(
    instances: List[Tuple[str, Any]], only: str
) -> List[Tuple[str, Any]]:
    """Keep instances whose key contains ``only`` (``repro sweep
    --only``); raises a structured
    :class:`~repro.exceptions.UnknownInstanceError` (listing the valid
    keys) when nothing matches, since an accidentally empty sweep would
    journal nothing and look "complete"."""
    kept = [(key, spec) for key, spec in instances if only in key]
    if not kept:
        raise UnknownInstanceError(only, [key for key, _ in instances])
    return kept
