"""Differential tier for the kernel v2 solve paths (batch + DP).

The v2 paths are only allowed to be *fast*, never *different*:

* **batch ≡ loop ≡ reference** — every batched query must return the
  same verdict as a fresh loop-of-singles kernel solve and as the
  reference backtracking solver, across option mixes (injective,
  pinned, forbidden images, propagation off), with witness validity
  checked via ``is_homomorphism``;
* **DP ≡ backtracking** — the treewidth-guided DP solver, forced onto
  every source via an explicitly built nice decomposition, must agree
  verdict-for-verdict with the backtracking kernel (and its witnesses
  must be real homomorphisms);
* **governor honesty** — under deadline/budget faults both new paths
  answer UNKNOWN or agree with the brute-force oracle, never a wrong
  definite verdict;
* **chaos evict** — clearing the engine's compiled-target cache
  mid-batch (the chaos harness's ``evict`` fault, applied
  deterministically) never changes an answer; the session keeps its
  own compiled target and later batches simply recompile.

Together the parametrized sweeps run 500+ seeded cases
(``test_harness_covers_500_cases`` pins the arithmetic).
"""

import itertools

import pytest

from repro.engine import HomEngine
from repro.engine.instrumentation import SolverStats
from repro.exceptions import ResourceError, ValidationError
from repro.graphtheory import make_nice, treewidth_upper_bound
from repro.homomorphism import is_homomorphism
from repro.homomorphism.search import HomomorphismSearch
from repro.kernel import (
    BatchSolveSession,
    BitsetHomomorphismSolver,
    CompiledTarget,
    TreewidthDPSolver,
    plan_dp,
)
from repro.resources import governed
from repro.structures import (
    Vocabulary,
    gaifman_graph,
    random_structure,
    undirected_cycle,
    undirected_path,
)

GRAPH = Vocabulary({"E": 2})
COLORED = Vocabulary({"E": 2, "P": 1})


def _random_pair(vocabulary, seed):
    size_a = 1 + seed % 4
    size_b = 1 + (seed // 4) % 4
    density_a = 0.15 + 0.2 * (seed % 3)
    density_b = 0.15 + 0.2 * ((seed // 3) % 3)
    a = random_structure(vocabulary, size_a, density_a, seed=2 * seed)
    b = random_structure(vocabulary, size_b, density_b, seed=2 * seed + 1)
    return a, b


def _batch_sources(vocabulary, seed):
    """Four small sources for one batched target (seeded)."""
    return [
        random_structure(
            vocabulary,
            1 + (seed + k) % 4,
            0.15 + 0.2 * ((seed + k) % 3),
            seed=97 * seed + k,
        )
        for k in range(4)
    ]


def _oracle(source, target):
    src, tgt = list(source.universe), list(target.universe)
    if not src:
        return True
    if not tgt:
        return False
    return any(
        is_homomorphism(source, target, dict(zip(src, images)))
        for images in itertools.product(tgt, repeat=len(src))
    )


def _force_dp(source, compiled, **options):
    """A DP solver for ``source`` regardless of the plan_dp gate (the
    differential tier exercises the DP on *every* source, not just the
    ones the production gate selects)."""
    graph = gaifman_graph(source)
    _, decomp = treewidth_upper_bound(graph)
    nice = make_nice(decomp, graph)
    return TreewidthDPSolver(source, compiled, nice, **options)


# ----------------------------------------------------------------------
# Batch ≡ loop-of-singles ≡ reference
# ----------------------------------------------------------------------
def _three_way(session, compiled, target, source, **options):
    """One query through all three paths; assert verdict agreement and
    witness validity."""
    batched = session.solve(source, **options)
    single = BitsetHomomorphismSolver(
        source, compiled, **options
    ).first()
    reference = HomomorphismSearch(source, target, **options).first()
    assert (batched is None) == (single is None) == (reference is None), (
        f"verdict disagreement: {source!r} -> {target!r} {options}"
    )
    for witness in (batched, single):
        if witness is not None:
            assert is_homomorphism(source, target, witness)
    return batched


@pytest.mark.parametrize("seed", range(45))
def test_batch_differential_graph(seed):
    _, target = _random_pair(GRAPH, seed)
    compiled = CompiledTarget(target)
    session = BatchSolveSession(compiled)
    for source in _batch_sources(GRAPH, seed):
        _three_way(session, compiled, target, source)


@pytest.mark.parametrize("seed", range(15))
def test_batch_differential_colored(seed):
    _, target = _random_pair(COLORED, seed)
    compiled = CompiledTarget(target)
    session = BatchSolveSession(compiled)
    for source in _batch_sources(COLORED, seed):
        _three_way(session, compiled, target, source)


@pytest.mark.parametrize("seed", range(20))
def test_batch_differential_option_mixes(seed):
    """Each source in the batch runs under a different option mix —
    sessions must keep per-query options separate despite the shared
    scratch and memo."""
    _, target = _random_pair(GRAPH, seed + 100)
    compiled = CompiledTarget(target)
    session = BatchSolveSession(compiled)
    sources = _batch_sources(GRAPH, seed + 100)

    injective = _three_way(
        session, compiled, target, sources[0], injective=True
    )
    if injective is not None:
        assert len(set(injective.values())) == len(injective)

    if sources[1].universe and target.universe:
        pin = {sources[1].universe[0]: target.universe[0]}
        pinned = _three_way(
            session, compiled, target, sources[1], pinned=pin
        )
        if pinned is not None:
            assert pinned[sources[1].universe[0]] == target.universe[0]
    else:
        _three_way(session, compiled, target, sources[1])

    if target.universe:
        forbidden = frozenset([target.universe[0]])
        avoiding = _three_way(
            session, compiled, target, sources[2],
            forbidden_images=forbidden,
        )
        if avoiding is not None:
            assert not set(avoiding.values()) & forbidden
    else:
        _three_way(session, compiled, target, sources[2])

    _three_way(session, compiled, target, sources[3], propagate=False)


def test_solve_batch_classmethod_matches_loop():
    """``BitsetHomomorphismSolver.solve_batch`` is the loop-of-singles,
    verdict-for-verdict, on a containment-shaped workload."""
    target = undirected_cycle(6)
    compiled = CompiledTarget(target)
    sources = [undirected_path(n) for n in (2, 3, 4, 5)] + [
        undirected_cycle(n) for n in (3, 4, 5, 6)
    ]
    batched = BitsetHomomorphismSolver.solve_batch(sources, target)
    for source, witness in zip(sources, batched):
        single = BitsetHomomorphismSolver(source, compiled).first()
        assert (witness is None) == (single is None)
        if witness is not None:
            assert is_homomorphism(source, target, witness)


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
# DP ≡ backtracking kernel
# ----------------------------------------------------------------------
def _dp_vs_backtracking(source, target, **options):
    compiled = CompiledTarget(target)
    dp = _force_dp(source, compiled, **options).first()
    bt = BitsetHomomorphismSolver(source, compiled, **options).first()
    assert (dp is None) == (bt is None), (
        f"DP/backtracking disagreement: {source!r} -> {target!r} "
        f"{options}"
    )
    if dp is not None:
        assert is_homomorphism(source, target, dp)
    return dp


@pytest.mark.parametrize("seed", range(60))
def test_dp_differential_random_pairs(seed):
    a, b = _random_pair(GRAPH, seed)
    _dp_vs_backtracking(a, b)
    _dp_vs_backtracking(b, a)


@pytest.mark.parametrize("seed", range(30))
def test_dp_differential_pinned_and_forbidden(seed):
    a, b = _random_pair(COLORED, seed)
    if a.universe and b.universe:
        pin = {a.universe[0]: b.universe[0]}
        pinned = _dp_vs_backtracking(a, b, pinned=pin)
        if pinned is not None:
            assert pinned[a.universe[0]] == b.universe[0]
        forbidden = frozenset([b.universe[0]])
        avoiding = _dp_vs_backtracking(
            a, b, forbidden_images=forbidden
        )
        if avoiding is not None:
            assert not set(avoiding.values()) & forbidden
    else:
        _dp_vs_backtracking(a, b)
        _dp_vs_backtracking(a, b, propagate=False)


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
    if dp is not None:
        assert is_homomorphism(source, target, dp)
    engine = HomEngine(cache_enabled=False)
    assert engine.exists_homomorphism(source, target) is expected
    assert engine.stats.dp_solves == 1


def test_dp_without_propagation_agrees():
    for n, expected in ((12, True), (13, False)):
        source = undirected_cycle(n)
        compiled = CompiledTarget(undirected_path(2))
        dp = _force_dp(source, compiled, propagate=False).first()
        assert (dp is not None) is expected


def test_dp_gate_rejections_fall_back():
    """The production gate rejects injective queries, tiny sources and
    wide sources — and the engine still answers correctly."""
    assert plan_dp(undirected_cycle(5), 2) is None  # below min_vars
    assert (
        plan_dp(undirected_cycle(20), 2, injective=True) is None
    )
    dense = random_structure(GRAPH, 14, 0.6, seed=7)
    assert plan_dp(dense, 4) is None  # width gate
    engine = HomEngine(cache_enabled=False)
    assert engine.exists_homomorphism(
        undirected_cycle(20), undirected_path(2)
    ) is True
    assert (
        engine.find_homomorphism(
            undirected_cycle(20), undirected_cycle(20), injective=True
        )
        is not None
    )


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
        _, target = _random_pair(GRAPH, seed)
        session = BatchSolveSession(target)
        for source in _batch_sources(GRAPH, seed)[:2]:
            expected = _oracle(source, target)
            try:
                with governed(budget=budget):
                    witness = session.solve(source)
            except ResourceError:
                continue  # honest UNKNOWN
            assert (witness is not None) == expected
            if witness is not None:
                assert is_homomorphism(source, target, witness)


@pytest.mark.parametrize("budget", [1, 3, 10, 100])
def test_dp_budget_trips_yield_unknown_never_wrong(budget):
    for seed in range(8):
        a, b = _random_pair(GRAPH, seed)
        expected = _oracle(a, b)
        compiled = CompiledTarget(b)
        try:
            with governed(budget=budget):
                witness = _force_dp(a, compiled).first()
        except ResourceError:
            continue  # honest UNKNOWN
        assert (witness is not None) == expected
        if witness is not None:
            assert is_homomorphism(a, b, witness)


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
    source, compiled = undirected_cycle(16), CompiledTarget(
        undirected_path(2)
    )
    with pytest.raises(ResourceError):
        with governed(deadline=0.0):
            _force_dp(source, compiled).first()


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
    expected = [
        HomomorphismSearch(s, target).first() is not None
        for s in sources
    ]
    batch = engine.batch(target)
    got = []
    for source in sources:  # 10 evict-interleaved cases
        engine.clear_cache()  # the evict fault, deterministically
        witness = batch.find(source)
        got.append(witness is not None)
        if witness is not None:
            assert is_homomorphism(source, target, witness)
    assert got == expected
    # a fresh batch after eviction recompiles rather than reusing a
    # dropped entry
    before = engine.stats.kernel_compilations
    engine.clear_cache()
    fresh = engine.batch(target)
    assert fresh.find(undirected_path(2)) is not None
    assert engine.stats.kernel_compilations == before + 1


# ----------------------------------------------------------------------
# Coverage arithmetic
# ----------------------------------------------------------------------
def test_harness_covers_500_cases():
    """The sweeps above run >= 500 seeded differential cases."""
    batch_three_way = (45 + 15) * 4 * 3  # seeds x sources x paths
    batch_option_mixes = 20 * 4 * 3
    dp_random = 60 * 2
    dp_options = 30 * 2
    governor = 4 * 8 * 2 + 4 * 8  # batch (2 sources) + dp budgets
    evict = 10
    total = (
        batch_three_way
        + batch_option_mixes
        + dp_random
        + dp_options
        + governor
        + evict
    )
    assert total >= 500
