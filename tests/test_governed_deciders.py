"""Deadline/budget semantics of the governed deciders.

The contract under test: every public decider running under an ambient
:func:`repro.resources.governed` context either finishes in time or
raises a typed :class:`~repro.exceptions.ResourceError` *promptly* — the
flagship assertion being that a deliberately slow homomorphism search
raises :class:`~repro.exceptions.DeadlineExceededError` within twice the
configured deadline.  Plus: graceful degradation (treewidth fallback),
trivalent verdicts end to end, the core-shrink invariant guard, and the
governed CLI flags.
"""

import gc
import time

import pytest

from repro.engine import HomEngine
from repro.exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    InvariantViolationError,
    OperationCancelledError,
)
from repro.resources import GOVERNOR, governed
from repro.structures import (
    path_with_random_chords,
    undirected_cycle,
    undirected_path,
)


def slow_negative_instance():
    """A hom instance that takes seconds ungoverned (found empirically):
    a chorded path forced into C7 backtracks heavily before refuting.
    This seed is slow (>2s) for *both* the compiled bitset kernel and
    the reference solver, so the deadline assertions below hold on
    either engine configuration."""
    return path_with_random_chords(80, 12, seed=0), undirected_cycle(7)


# ----------------------------------------------------------------------
# The 2x-deadline guarantee
# ----------------------------------------------------------------------
class TestDeadlineSemantics:
    def test_slow_hom_search_respects_deadline(self):
        source, target = slow_negative_instance()
        deadline_s = 0.05
        engine = HomEngine(cache_enabled=False)
        # The bound measures the engine's checkpoint spacing.  A gen-2
        # collection over garbage that earlier tests left on the heap
        # is not a checkpoint gap, so collect it now and freeze what is
        # left out of the collector's reach for the timed block.
        gc.collect()
        gc.freeze()
        try:
            started = time.monotonic()
            with governed(deadline=deadline_s):
                with pytest.raises(DeadlineExceededError) as excinfo:
                    engine.find_homomorphism(source, target)
            elapsed = time.monotonic() - started
        finally:
            gc.unfreeze()
        assert elapsed < 2 * deadline_s, (
            f"deadline overshoot: {elapsed:.3f}s vs {deadline_s}s configured"
        )
        err = excinfo.value
        assert err.deadline_s == deadline_s
        assert err.elapsed_s >= deadline_s
        assert err.site in {"hom.search", "hom.propagate"}

    def test_slow_hom_verdict_is_unknown_not_false(self):
        source, target = slow_negative_instance()
        engine = HomEngine(cache_enabled=False)
        before = GOVERNOR.unknown_verdicts
        with governed(deadline=0.05):
            verdict = engine.decide_homomorphism(source, target)
        assert verdict.is_unknown
        assert "DeadlineExceededError" in verdict.reason
        assert GOVERNOR.unknown_verdicts == before + 1

    def test_cancellation_interrupts_search(self):
        import threading

        source, target = slow_negative_instance()
        engine = HomEngine(cache_enabled=False)
        with governed() as ctx:
            timer = threading.Timer(0.05, ctx.cancel)
            timer.start()
            started = time.monotonic()
            try:
                with pytest.raises(OperationCancelledError):
                    engine.find_homomorphism(source, target)
            finally:
                timer.cancel()
            assert time.monotonic() - started < 1.0

    def test_budget_interrupts_search(self):
        source, target = slow_negative_instance()
        engine = HomEngine(cache_enabled=False)
        with governed(budget=1000):
            with pytest.raises(BudgetExceededError) as excinfo:
                engine.find_homomorphism(source, target)
        assert excinfo.value.budget == 1000
        assert excinfo.value.spent > 1000

    def test_ungoverned_call_still_completes(self):
        # No ambient context: the same decider, unlimited (sanity check
        # that governance is opt-in and the passive path stays correct).
        engine = HomEngine(cache_enabled=False)
        assert engine.find_homomorphism(
            undirected_path(2), undirected_path(4)
        ) is not None


# ----------------------------------------------------------------------
# Trivalent verdicts end to end
# ----------------------------------------------------------------------
class TestVerdictEndToEnd:
    def test_true_verdict_carries_valid_witness(self):
        from repro.homomorphism import homomorphism_verdict, is_homomorphism

        source, target = undirected_path(2), undirected_path(4)
        verdict = homomorphism_verdict(source, target)
        assert verdict.is_true
        assert is_homomorphism(source, target, verdict.witness)
        assert verdict.consumed  # consumption record travels with it

    def test_false_verdict_on_refutable_instance(self):
        from repro.homomorphism import homomorphism_verdict

        verdict = homomorphism_verdict(undirected_cycle(5), undirected_path(2))
        assert verdict.is_false
        assert verdict.witness is None

    def test_containment_verdicts(self):
        from repro.cq import (
            boolean_cq,
            containment_verdict,
            ucq_containment_verdict,
        )
        from repro.logic.syntax import Atom, Var
        from repro.structures import GRAPH_VOCABULARY

        edge = boolean_cq(
            GRAPH_VOCABULARY, [Atom("E", (Var("u"), Var("v")))]
        )
        path2 = boolean_cq(
            GRAPH_VOCABULARY,
            [Atom("E", (Var("x"), Var("y"))), Atom("E", (Var("y"), Var("z")))],
        )
        assert containment_verdict(path2, edge).is_true
        assert containment_verdict(edge, path2).is_false
        assert ucq_containment_verdict([path2], [edge]).is_true
        assert ucq_containment_verdict([edge], [path2]).is_false

    def test_ucq_kleene_unknown_propagates(self):
        from repro.cq import boolean_cq, ucq_containment_verdict
        from repro.engine import get_engine
        from repro.logic.syntax import Atom, Var
        from repro.structures import GRAPH_VOCABULARY

        edge = boolean_cq(
            GRAPH_VOCABULARY, [Atom("E", (Var("u"), Var("v")))]
        )
        path3 = boolean_cq(
            GRAPH_VOCABULARY,
            [Atom("E", (Var(f"w{i}"), Var(f"w{i+1}"))) for i in range(3)],
        )
        get_engine().clear_cache()
        # budget=0 trips at the very first checkpoint: the kernel can
        # refute this instance in one checkpoint, so any positive budget
        # would let it (correctly) answer FALSE instead of UNKNOWN.
        with governed(budget=0):
            verdict = ucq_containment_verdict([edge], [path3])
        assert verdict.is_unknown
        assert "disjunct 0" in verdict.reason


# ----------------------------------------------------------------------
# Graceful degradation: treewidth fallback
# ----------------------------------------------------------------------
class TestTreewidthFallback:
    # random_graph(12, 0.35, seed=4): heuristic bounds differ (3 < 4),
    # so the exact solver genuinely runs and the limit genuinely bites.
    def _graph(self):
        from repro.graphtheory import random_graph

        return random_graph(12, 0.35, seed=4)

    def test_fallback_at_least_exact_when_both_complete(self):
        from repro.graphtheory import treewidth_exact, treewidth_with_fallback

        g = self._graph()
        exact = treewidth_exact(g)
        result = treewidth_with_fallback(g)
        assert result.exact
        assert result.method == "branch-and-bound"
        assert result.width == exact

    def test_limit_trip_degrades_to_upper_bound(self):
        from repro.graphtheory import treewidth_exact, treewidth_with_fallback

        g = self._graph()
        before = GOVERNOR.fallbacks
        result = treewidth_with_fallback(g, limit=0)
        assert not result.exact
        assert result.method == "min-fill/min-degree upper bound"
        assert "BudgetExceededError" in result.reason
        assert result.width >= treewidth_exact(g)
        assert GOVERNOR.fallbacks == before + 1

    def test_deadline_trip_degrades_to_upper_bound(self):
        from repro.graphtheory import treewidth_exact, treewidth_with_fallback

        g = self._graph()
        with governed(deadline=0.0):
            result = treewidth_with_fallback(g)
        assert not result.exact
        assert "DeadlineExceededError" in result.reason
        assert result.width >= treewidth_exact(g)

    def test_cancellation_is_not_swallowed_by_fallback(self):
        from repro.graphtheory import treewidth_with_fallback

        g = self._graph()
        with governed() as ctx:
            ctx.cancel()
            with pytest.raises(OperationCancelledError):
                treewidth_with_fallback(g)


# ----------------------------------------------------------------------
# The core-shrink invariant guard
# ----------------------------------------------------------------------
class TestCoreInvariantGuard:
    def test_non_shrinking_retraction_raises_typed_error(self, monkeypatch):
        from repro.homomorphism import cores

        # A buggy retraction search returning the identity endomorphism
        # used to spin the `while True` loop forever; now it must raise.
        def identity_retraction(structure, engine=None):
            return {e: e for e in structure.universe}

        monkeypatch.setattr(
            cores, "find_proper_retraction", identity_retraction
        )
        with pytest.raises(InvariantViolationError):
            cores.core_by_retractions(undirected_cycle(4))
        with pytest.raises(InvariantViolationError):
            cores.compute_core_with_map(undirected_cycle(4))

    def test_core_computation_still_correct(self):
        from repro.homomorphism import compute_core

        # C4 retracts to a single edge (it is bipartite).
        core = compute_core(undirected_cycle(4))
        assert core.size() == 2


# ----------------------------------------------------------------------
# Governance across the other deciders
# ----------------------------------------------------------------------
class TestOtherDeciders:
    def test_datalog_budget_trip(self):
        from repro.datalog import evaluate_naive, evaluate_semi_naive, parse_program
        from repro.structures import directed_path

        structure = directed_path(6)
        program = parse_program(
            "T(x, y) <- E(x, y).\nT(x, z) <- E(x, y), T(y, z).",
            structure.vocabulary.without_constants(),
        )
        for evaluate in (evaluate_naive, evaluate_semi_naive):
            with governed(budget=5):
                with pytest.raises(BudgetExceededError):
                    evaluate(program, structure)
        # Ungoverned: same program completes (transitive closure of P6).
        result = evaluate_semi_naive(program, structure)
        assert len(result.relations["T"]) == 15

    def test_pebble_game_deadline_and_structured_budget(self):
        from repro.pebble import ExistentialPebbleGame, duplicator_wins

        a, b = undirected_path(3), undirected_path(3)
        with governed(deadline=0.0):
            with pytest.raises(DeadlineExceededError):
                duplicator_wins(a, b, 2)
        with pytest.raises(BudgetExceededError) as excinfo:
            ExistentialPebbleGame(a, b, 2, budget=1).winning_family()
        assert excinfo.value.budget == 1
        assert excinfo.value.site == "pebble.positions"

    def test_kconsistency_structured_budget(self):
        from repro.pebble.kconsistency import direct_k_consistency

        a, b = undirected_path(3), undirected_path(3)
        with pytest.raises(BudgetExceededError) as excinfo:
            direct_k_consistency(a, b, 2, budget=1)
        assert excinfo.value.site == "kconsistency.positions"
        with governed(deadline=0.0):
            with pytest.raises(DeadlineExceededError):
                direct_k_consistency(a, b, 2)

    def test_ramsey_structured_errors(self):
        from repro.graphtheory import ramsey_bound
        from repro.graphtheory.ramsey import find_monochromatic_subset

        with pytest.raises(BudgetExceededError) as excinfo:
            ramsey_bound(2, 3, 10)
        assert excinfo.value.site == "ramsey.bound"
        with governed(deadline=0.0):
            with pytest.raises(DeadlineExceededError):
                find_monochromatic_subset(range(10), 2, lambda s: 0, 3)

    def test_minor_search_deadline(self):
        from repro.graphtheory import grid_graph, has_clique_minor

        with governed(deadline=0.0):
            with pytest.raises(DeadlineExceededError):
                has_clique_minor(grid_graph(3, 3), 4)


# ----------------------------------------------------------------------
# Governed CLI flags
# ----------------------------------------------------------------------
class TestGovernedCli:
    @pytest.fixture()
    def files(self, tmp_path):
        from repro.structures import structure_to_json

        source, target = slow_negative_instance()
        paths = {}
        for name, s in [
            ("slow_source", source),
            ("slow_target", target),
            ("p2", undirected_path(2)),
            ("p4", undirected_path(4)),
            ("c5", undirected_cycle(5)),
        ]:
            p = tmp_path / f"{name}.json"
            p.write_text(structure_to_json(s))
            paths[name] = str(p)
        return paths

    def test_hom_deadline_unknown_exit_code(self, files, capsys):
        from repro.cli import main

        code = main([
            "hom", files["slow_source"], files["slow_target"],
            "--deadline", "0.05",
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert out.startswith("unknown:")
        assert "Deadline" in out

    def test_hom_deadline_definite_answers_unchanged(self, files, capsys):
        from repro.cli import main

        assert main(["hom", files["p2"], files["p4"],
                     "--deadline", "30"]) == 0
        assert main(["hom", files["c5"], files["p2"],
                     "--deadline", "30"]) == 1
        assert "no homomorphism" in capsys.readouterr().out

    def test_treewidth_fallback_flag(self, files, capsys):
        from repro.cli import main

        assert main(["treewidth", files["c5"], "--fallback"]) == 0
        assert "treewidth: 2" in capsys.readouterr().out
