"""Kernel v2 tier: the batch and DP solve paths.

Batched queries (one handle per target, option mixes per query) and the
DP forced onto every source run through :func:`tests.oracle.check`.
Specific to this tier: the production DP gate and the ``dp_*``/
``batch_*`` counters; budget and deadline trips that answer UNKNOWN or
agree with the oracle; and chaos ``evict`` between batched queries,
which never changes an answer (later batches simply recompile).
"""

import itertools

import pytest

from repro.engine import HomEngine
from repro.engine.instrumentation import SolverStats
from repro.exceptions import ResourceError, ValidationError
from repro.kernel import (
    BatchSolveSession,
    CompiledTarget,
    TreewidthDPSolver,
    plan_dp,
)
from repro.resources import governed
from repro.structures import (
    random_structure,
    undirected_cycle,
    undirected_path,
)

from . import oracle
from .oracle import (
    COLORED,
    GRAPH,
    Case,
    batch_sources,
    both_ways,
    check,
    force_dp,
    random_pair,
)

DP = [oracle.path("dp")]


# ----------------------------------------------------------------------
# Batch: every query of a shared-target batch against the oracle
# ----------------------------------------------------------------------
def _batch(vocabulary, seed):
    _, target = random_pair(vocabulary, seed)
    return [Case(source, target)
            for source in batch_sources(vocabulary, seed)]


def _option_mix(seed):
    """Each source of one batch under a different option mix — the
    handle must keep per-query options apart despite the shared scratch
    and memo."""
    _, target = random_pair(GRAPH, seed + 100)
    sources = batch_sources(GRAPH, seed + 100)
    value = target.universe[0]
    return [
        Case(sources[0], target, {"injective": True}),
        Case(sources[1], target, {"pinned": {sources[1].universe[0]: value}}),
        Case(sources[2], target, {"forbidden_images": frozenset([value])}),
        Case(sources[3], target, {"propagate": False}),
    ]


def _dp_options(seed):
    a, b = random_pair(COLORED, seed)
    return [Case(a, b, {"pinned": {a.universe[0]: b.universe[0]}}),
            Case(a, b, {"forbidden_images": frozenset([b.universe[0]])})]


BATCH_GRAPH = [_batch(GRAPH, seed) for seed in range(45)]
BATCH_COLORED = [_batch(COLORED, seed) for seed in range(15)]
OPTION_MIXES = [_option_mix(seed) for seed in range(20)]
DP_PAIRS = [both_ways(*random_pair(GRAPH, seed)) for seed in range(60)]
DP_OPTIONS = [_dp_options(seed) for seed in range(30)]


@pytest.mark.parametrize("seed", range(45))
def test_batch_differential_graph(seed):
    for case in BATCH_GRAPH[seed]:
        check(case)


@pytest.mark.parametrize("seed", range(15))
def test_batch_differential_colored(seed):
    for case in BATCH_COLORED[seed]:
        check(case)


@pytest.mark.parametrize("seed", range(20))
def test_batch_differential_option_mixes(seed):
    for case in OPTION_MIXES[seed]:
        check(case)


def test_batch_session_matches_oracle_on_containment_workload():
    """One :class:`BatchSolveSession` answers a containment-shaped
    workload (many sources, one target) like the oracle."""
    target = undirected_cycle(6)
    sources = [undirected_path(n) for n in (2, 3, 4, 5)] + [
        undirected_cycle(n) for n in (3, 4, 5, 6)
    ]
    session = BatchSolveSession(target)
    for source in sources:
        assert oracle.agrees(Case(source, target), session.solve(source))


def test_batch_session_memo_dedups_repeats():
    stats = SolverStats()
    session = BatchSolveSession(undirected_path(2), stats=stats)
    first = session.solve(undirected_cycle(4))
    nodes_after_first = stats.nodes
    second = session.solve(undirected_cycle(4))
    assert stats.batch_dedup_hits == 1
    assert stats.nodes == nodes_after_first  # no re-search
    assert first == second
    second["extra"] = "mutation"  # memo hands out copies
    assert "extra" not in session.solve(undirected_cycle(4))


def test_batch_session_validation_parity():
    session = BatchSolveSession(undirected_path(3))
    with pytest.raises(ValidationError):
        session.solve(undirected_path(2), pinned={"nope": 0})


# ----------------------------------------------------------------------
# DP, forced onto every source
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(60))
def test_dp_differential_random_pairs(seed):
    for case in DP_PAIRS[seed]:
        check(case, DP)


@pytest.mark.parametrize("seed", range(30))
def test_dp_differential_pinned_and_forbidden(seed):
    for case in DP_OPTIONS[seed]:
        check(case, DP)


@pytest.mark.parametrize(
    "n, target, expected",
    [
        (12, undirected_path(2), True),   # even cycle is 2-colorable
        (13, undirected_path(2), False),  # odd cycle is not
        (18, undirected_path(2), True),
        (19, undirected_path(2), False),
        (14, undirected_cycle(7), True),  # winds twice around C7
        (15, undirected_cycle(5), True),
        (13, undirected_cycle(15), False),  # odd cycle cannot map to a
                                            # longer odd cycle
    ],
)
def test_dp_structured_verdicts(n, target, expected):
    """Hand-checkable bounded-width instances through the *production*
    gate: these sources pass ``plan_dp``, so the engine really routes
    them to the DP."""
    source = undirected_cycle(n)
    compiled = CompiledTarget(target)
    plan = plan_dp(source, compiled.size())
    assert plan is not None and plan.width <= 3
    dp = TreewidthDPSolver(source, compiled, plan.nice).first()
    assert (dp is not None) is expected
    assert oracle.agrees(Case(source, target), dp)
    engine = HomEngine(cache_enabled=False)
    assert engine.exists_homomorphism(source, target) is expected
    assert engine.stats.dp_solves == 1


def test_dp_without_propagation_agrees():
    for n in (12, 13):
        options = {"propagate": False}
        check(Case(undirected_cycle(n), undirected_path(2), options), DP)


def test_dp_gate_rejections_fall_back():
    """The production gate rejects injective queries, tiny sources and
    wide sources — and the engine still answers correctly."""
    assert plan_dp(undirected_cycle(5), 2) is None  # below min_vars
    assert plan_dp(undirected_cycle(20), 2, injective=True) is None
    dense = random_structure(GRAPH, 14, 0.6, seed=7)
    assert plan_dp(dense, 4) is None  # width gate
    c20 = undirected_cycle(20)
    check(Case(c20, undirected_path(2)), [oracle.path("memo")])
    check(Case(c20, c20, {"injective": True}), [oracle.path("memo")])


def test_dp_counters_and_no_dp_engine():
    engine = HomEngine(cache_enabled=False, use_dp=True)
    engine.exists_homomorphism(undirected_cycle(16), undirected_path(2))
    assert engine.stats.dp_solves == 1
    assert engine.stats.dp_bags > 0
    assert engine.stats.dp_entries > 0
    off = HomEngine(cache_enabled=False, use_dp=False)
    off.exists_homomorphism(undirected_cycle(16), undirected_path(2))
    assert off.stats.dp_solves == 0
    assert off.snapshot()["dp_enabled"] is False


# ----------------------------------------------------------------------
# Governor honesty under deadline/budget for both paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("budget", [1, 3, 10, 100])
def test_batch_budget_trips_yield_unknown_never_wrong(budget):
    """A budget trip inside a batch makes that query UNKNOWN; it never
    flips a verdict, and the rest of the batch is unaffected."""
    for seed in range(8):
        cases = _batch(GRAPH, seed)[:2]
        session = BatchSolveSession(cases[0].target)
        for case in cases:
            try:
                with governed(budget=budget):
                    witness = session.solve(case.source)
            except ResourceError:
                continue  # honest UNKNOWN
            assert oracle.agrees(case, witness)


@pytest.mark.parametrize("budget", [1, 3, 10, 100])
def test_dp_budget_trips_yield_unknown_never_wrong(budget):
    for seed in range(8):
        case = Case(*random_pair(GRAPH, seed))
        compiled = CompiledTarget(case.target)
        try:
            with governed(budget=budget):
                witness = force_dp(case.source, compiled).first()
        except ResourceError:
            continue  # honest UNKNOWN
        assert oracle.agrees(case, witness)


def test_dp_engine_verdict_is_trivalent_under_budget():
    """Through the engine facade the DP path's trips surface as UNKNOWN
    verdicts, exactly like the backtracking path."""
    engine = HomEngine(cache_enabled=False, use_dp=True)
    with governed(budget=1):
        verdict = engine.decide_homomorphism(
            undirected_cycle(13), undirected_path(2)
        )
    assert verdict.is_unknown


def test_dp_deadline_trips_are_typed():
    compiled = CompiledTarget(undirected_path(2))
    with pytest.raises(ResourceError):
        with governed(deadline=0.0):
            force_dp(undirected_cycle(16), compiled).first()


def test_batch_deadline_trips_are_typed():
    session = BatchSolveSession(undirected_path(2))
    with pytest.raises(ResourceError):
        with governed(deadline=0.0):
            session.solve(undirected_cycle(9))


# ----------------------------------------------------------------------
# Chaos evict vs the shared batch compile cache
# ----------------------------------------------------------------------
def test_evict_between_batch_queries_never_changes_answers():
    """The chaos harness's ``evict`` fault clears both engine caches;
    applied deterministically between every batched query it must not
    change any verdict — the session keeps its compiled target alive,
    and the next batch simply recompiles."""
    engine = HomEngine()
    target = undirected_cycle(6)
    sources = [undirected_path(n) for n in (2, 3, 4)] + [
        undirected_cycle(n) for n in (3, 4, 5, 6, 7, 8, 12)
    ]
    batch = engine.batch(target)
    for source in sources:  # 10 evict-interleaved cases
        engine.clear_cache()  # the evict fault, deterministically
        assert oracle.agrees(Case(source, target), batch.find(source))
    # a fresh batch after eviction recompiles rather than reusing a
    # dropped entry
    before = engine.stats.kernel_compilations
    engine.clear_cache()
    fresh = engine.batch(target)
    assert fresh.find(undirected_path(2)) is not None
    assert engine.stats.kernel_compilations == before + 1


def test_harness_covers_500_cases():
    """The generated cases give the batch path and the DP path at least
    the 500 seeded cases this tier has always checked."""
    batch_cases = list(itertools.chain(
        *BATCH_GRAPH, *BATCH_COLORED, *OPTION_MIXES
    ))
    dp_cases = list(itertools.chain(*DP_PAIRS, *DP_OPTIONS))
    assert oracle.coverage(batch_cases)["batch"] == len(batch_cases) == 320
    assert oracle.coverage(dp_cases)["dp"] == len(dp_cases) == 180
    assert oracle.coverage(batch_cases)["dp"] == len(batch_cases) - 20
