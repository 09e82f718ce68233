"""The incremental engine: deltas, fingerprints, invalidation, warm starts.

Unit coverage for :mod:`repro.incremental` plus the observability
satellites: the entry-bounded memo cache under a 10k-decision stream,
the fine-grained ``invalidate_edit`` keep/evict split, and the
``repro stats --reset`` regression (distributed/lease and journal
counters must reset too).
"""

import random

import pytest

from repro.datalog.evaluation import evaluate_semi_naive
from repro.datalog.program import parse_program
from repro.distributed.leases import LeaseManager
from repro.engine.cache import HomCache
from repro.engine.engine import HomEngine
from repro.engine.fingerprint import structure_fingerprint
from repro.engine.instrumentation import DISTRIBUTED, INCREMENTAL
from repro.exceptions import (
    BudgetExceededError,
    ValidationError,
)
from repro.homomorphism.search import is_homomorphism
from repro.incremental import (
    Delta,
    IncrementalCoreSession,
    IncrementalFixpoint,
    IncrementalHomSession,
    apply_delta,
    incremental_containment_session,
)
from repro.resources import SweepJournal, governed
from repro.structures import (
    Structure,
    Vocabulary,
    directed_cycle,
    directed_path,
    undirected_cycle,
    undirected_path,
)

GRAPH = Vocabulary({"E": 2})


def rebuilt(structure):
    """A fresh instance equal to ``structure`` (no cached WL state)."""
    return Structure(
        structure.vocabulary,
        structure.universe,
        {
            name: structure.relation(name)
            for name in structure.vocabulary.relation_names
        },
        structure.constants,
    )


# ----------------------------------------------------------------------
# Delta semantics
# ----------------------------------------------------------------------
class TestDelta:
    def test_inverse_swaps_adds_and_removes(self):
        d = Delta(
            add_elements=(9,),
            add_facts=[("E", (0, 1))],
            remove_facts=[("E", (1, 2))],
        )
        inv = d.inverse()
        assert inv.remove_elements == (9,)
        assert inv.remove_facts == (("E", (0, 1)),)
        assert inv.add_facts == (("E", (1, 2)),)
        assert inv.inverse() == d

    def test_direction_predicates(self):
        assert Delta(add_facts=[("E", (0, 1))]).hardens()
        assert not Delta(add_facts=[("E", (0, 1))]).loosens()
        assert Delta(remove_facts=[("E", (0, 1))]).loosens()
        assert Delta().is_empty()

    def test_apply_then_inverse_round_trips(self):
        s = undirected_path(4)
        d = Delta(add_facts=[("E", (0, 3)), ("E", (3, 0))])
        edited, record = apply_delta(s, d)
        assert edited.has_fact("E", (0, 3))
        back, record2 = apply_delta(edited, d.inverse())
        assert back == s
        assert record2.new_fingerprint == record.old_fingerprint

    def test_rejects_adding_present_fact(self):
        s = undirected_path(3)
        with pytest.raises(ValidationError):
            apply_delta(s, Delta(add_facts=[("E", (0, 1))]))

    def test_rejects_removing_absent_fact(self):
        s = undirected_path(3)
        with pytest.raises(ValidationError):
            apply_delta(s, Delta(remove_facts=[("E", (0, 2))]))

    def test_rejects_removing_used_element(self):
        s = undirected_path(3)
        with pytest.raises(ValidationError):
            apply_delta(s, Delta(remove_elements=(1,)))

    def test_element_removal_with_its_facts_is_allowed(self):
        s = directed_path(3)  # E(0,1), E(1,2)
        d = Delta(
            remove_elements=(2,),
            remove_facts=[("E", (1, 2))],
        )
        edited, _ = apply_delta(s, d)
        assert edited.size() == 2
        assert not edited.has_fact("E", (1, 2))
        back, _ = apply_delta(edited, d.inverse())
        assert back == s

    def test_rejects_unknown_relation_and_bad_arity(self):
        s = undirected_path(3)
        with pytest.raises(ValidationError):
            apply_delta(s, Delta(add_facts=[("R", (0, 1))]))
        with pytest.raises(ValidationError):
            apply_delta(s, Delta(add_facts=[("E", (0, 1, 2))]))

    def test_empty_delta_record_is_unchanged(self):
        s = undirected_cycle(4)
        edited, record = apply_delta(s, Delta())
        assert edited == s
        assert record.unchanged()


# ----------------------------------------------------------------------
# Incremental fingerprints
# ----------------------------------------------------------------------
class TestIncrementalFingerprint:
    def test_matches_full_recompute_on_sparse_edit(self):
        rng = random.Random(3)
        n = 40
        s = Structure(
            GRAPH,
            range(n),
            {"E": [(i, (i + 1) % n) for i in range(n)]},
        )
        cur, _ = apply_delta(s, Delta(add_facts=[("E", (0, 2))]))
        for step in range(10):
            a = rng.randrange(n)
            b = (a + 1 + rng.randrange(3)) % n
            if cur.has_fact("E", (a, b)):
                d = Delta(remove_facts=[("E", (a, b))])
            else:
                d = Delta(add_facts=[("E", (a, b))])
            cur, record = apply_delta(cur, d)
            assert record.new_fingerprint == structure_fingerprint(
                rebuilt(cur)
            )
        back, record = apply_delta(s, Delta(add_facts=[("E", (0, 5))]))
        back, record = apply_delta(back, Delta(remove_facts=[("E", (0, 5))]))
        assert record.new_fingerprint == s.fingerprint()

    def test_fixpoint_edits_compute_no_fingerprint(self, monkeypatch):
        import repro.engine.fingerprint as fingerprint

        calls = []
        for name in ("structure_fingerprint", "refinement_rounds"):
            real = getattr(fingerprint, name)
            monkeypatch.setattr(
                fingerprint, name,
                lambda s, real=real, name=name: calls.append(name) or real(s),
            )
        fix = IncrementalFixpoint(
            parse_program(
                "T(x, y) <- E(x, y).\nT(x, z) <- E(x, y), T(y, z).", GRAPH
            ),
            directed_path(6),
        )
        fix.relation("T")
        fix.apply(Delta(add_facts=[("E", (5, 0))]))
        fix.apply(Delta(remove_facts=[("E", (2, 3))]))
        assert fix.relation("T") == set(
            evaluate_semi_naive(fix.program, fix.structure).relations["T"]
        )
        assert calls == []
        assert fix.structure._fingerprint is None

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_session_edit_computes_one_digest(self, monkeypatch, side):
        import repro.engine.fingerprint as fingerprint

        real = fingerprint.structure_fingerprint
        digests = []
        monkeypatch.setattr(
            fingerprint, "structure_fingerprint",
            lambda s: digests.append(real(s)) or digests[-1],
        )
        session = IncrementalHomSession(
            undirected_cycle(6), undirected_path(3), engine=HomEngine()
        )
        assert session.decide().is_true
        edit = session.edit_source if side == "source" else session.edit_target
        fact = ("E", (0, 2)) if side == "source" else ("E", (0, 0))
        for delta in [Delta(add_facts=[fact]), Delta(remove_facts=[fact])] * 2:
            digests.clear()
            edit(delta)
            assert digests == [real(rebuilt(getattr(session, side)))]
            assert session.last_record.new_fingerprint == digests[0]


# ----------------------------------------------------------------------
# Satellite: entry-bounded memo cache
# ----------------------------------------------------------------------
class TestEntryBoundedCache:
    def test_max_entries_cap_holds_under_10k_decision_stream(self):
        engine = HomEngine()
        engine.cache = HomCache(64, max_entries=100)
        source, target = directed_path(2), directed_cycle(3)
        for i in range(10_000):
            engine.find_homomorphism(
                source, target, forbidden_images=frozenset({("pad", i)})
            )
            if i % 97 == 0:
                assert len(engine.cache) <= 100
                assert engine.cache.snapshot()["keys"] <= 64
        assert len(engine.cache) <= 100
        assert engine.cache.evictions > 0
        assert engine.stats.calls == 10_000

    def test_default_entry_cap_is_twice_maxsize(self):
        assert HomCache(maxsize=8).max_entries == 16


# ----------------------------------------------------------------------
# Fine-grained invalidation
# ----------------------------------------------------------------------
class TestInvalidateEdit:
    def test_only_edited_side_is_evicted(self):
        engine = HomEngine()
        a, b, c = undirected_path(3), undirected_cycle(4), directed_path(4)
        engine.exists_homomorphism(a, b)
        engine.exists_homomorphism(c, b)
        assert len(engine.cache) == 2
        before_kept = INCREMENTAL.incr_kept
        before_evicted = INCREMENTAL.incr_evictions
        _, record = apply_delta(a, Delta(add_facts=[("E", (0, 2))]))
        dropped = engine.invalidate_edit(record)
        assert dropped >= 1
        assert len(engine.cache) == 1  # the untouched (c, b) entry stays
        hits = engine.cache.hits
        engine.exists_homomorphism(c, b)
        assert engine.cache.hits == hits + 1
        assert INCREMENTAL.incr_evictions > before_evicted
        assert INCREMENTAL.incr_kept >= before_kept + 1

    def test_compiled_target_evicted_with_edit(self):
        engine = HomEngine()
        target = undirected_cycle(5)
        engine.exists_homomorphism(undirected_path(3), target)
        assert len(engine.compiled_targets) == 1
        _, record = apply_delta(target, Delta(add_facts=[("E", (0, 2))]))
        engine.invalidate_edit(record)
        assert len(engine.compiled_targets) == 0

    def test_identity_edit_evicts_nothing(self):
        engine = HomEngine()
        a, b = undirected_path(3), undirected_cycle(4)
        engine.exists_homomorphism(a, b)
        _, record = apply_delta(a, Delta())
        assert engine.invalidate_edit(record) == 0
        assert len(engine.cache) == 1


# ----------------------------------------------------------------------
# Warm-start sessions
# ----------------------------------------------------------------------
class TestWarmStart:
    def test_true_witness_survives_unrelated_edit(self):
        engine = HomEngine()
        session = IncrementalHomSession(
            directed_path(3), directed_cycle(4), engine=engine
        )
        assert session.decide().is_true
        before = INCREMENTAL.warm_hits
        verdict = session.edit_target(Delta(add_facts=[("E", (0, 2))]))
        assert verdict.is_true
        assert INCREMENTAL.warm_hits == before + 1
        assert is_homomorphism(
            session.source, session.target, verdict.witness
        )

    def test_false_preserved_under_source_hardening(self):
        engine = HomEngine()
        session = IncrementalHomSession(
            undirected_cycle(5), undirected_path(2), engine=engine
        )
        assert session.decide().is_false
        before = INCREMENTAL.warm_hits
        verdict = session.edit_source(
            Delta(add_facts=[("E", (0, 2)), ("E", (2, 0))])
        )
        assert verdict.is_false
        assert INCREMENTAL.warm_hits == before + 1

    def test_false_reconsidered_under_source_loosening(self):
        engine = HomEngine()
        # C5 -> P2 has no hom; removing the odd closing edge creates one.
        session = IncrementalHomSession(
            undirected_cycle(5), undirected_path(2), engine=engine
        )
        assert session.decide().is_false
        before = INCREMENTAL.warm_fallbacks
        verdict = session.edit_source(
            Delta(remove_facts=[("E", (4, 0)), ("E", (0, 4))])
        )
        assert verdict.is_true
        assert INCREMENTAL.warm_fallbacks == before + 1

    def test_broken_witness_falls_back(self):
        engine = HomEngine()
        session = IncrementalHomSession(
            directed_path(3), directed_cycle(4), engine=engine
        )
        assert session.decide().is_true
        # Removing the whole cycle edge set breaks any witness.
        target = session.target
        removals = [("E", tup) for _, tup in target.facts()]
        verdict = session.edit_target(Delta(remove_facts=removals))
        assert verdict.is_false

    def test_unknown_is_never_warm_started(self):
        from repro.structures import path_with_random_chords

        engine = HomEngine(cache_enabled=False)
        session = IncrementalHomSession(
            path_with_random_chords(80, 12, seed=0),
            undirected_cycle(7),
            engine=engine,
        )
        with governed(budget=1000):
            assert session.decide().is_unknown
        # After the trip, the next decision re-runs (and completes).
        verdict = session.edit_target(Delta(add_facts=[("E", (0, 2))]))
        assert verdict.is_true or verdict.is_false

    def test_core_session_warm_hit_and_fallback(self):
        engine = HomEngine()
        s = undirected_cycle(6)  # even cycle: core is one edge
        session = IncrementalCoreSession(s, engine=engine)
        assert session.core().size() == 2
        before = INCREMENTAL.warm_hits
        # An odd-distance chord keeps 2-colorability: the old witness
        # still maps, so the core is warm.
        core = session.edit(Delta(add_facts=[("E", (0, 3)), ("E", (3, 0))]))
        assert core.size() == 2
        assert INCREMENTAL.warm_hits == before + 1
        # An even-distance chord closes a triangle: witness breaks,
        # fallback recomputes.
        fallbacks = INCREMENTAL.warm_fallbacks
        core = session.edit(Delta(add_facts=[("E", (1, 3)), ("E", (3, 1))]))
        oracle = HomEngine(cache_enabled=False).core(
            rebuilt(session.structure)
        )
        assert core.size() == oracle.size()
        assert INCREMENTAL.warm_fallbacks == fallbacks + 1
        assert core.is_substructure_of(session.structure)

    def test_containment_session_matches_containment_verdict(self):
        from repro.cq import canonical_query
        from repro.cq.containment import containment_verdict

        q1 = canonical_query(directed_path(4))
        q2 = canonical_query(directed_path(3))
        session = incremental_containment_session(q1, q2)
        verdict = session.decide()
        want = containment_verdict(q1, q2)
        assert verdict.is_true == want.is_true
        assert verdict.is_false == want.is_false


# ----------------------------------------------------------------------
# DRed Datalog maintenance
# ----------------------------------------------------------------------
TC = parse_program(
    "T(x, y) <- E(x, y).\nT(x, z) <- E(x, y), T(y, z).", GRAPH
)


class TestIncrementalDatalog:
    def test_addition_extends_closure(self):
        fix = IncrementalFixpoint(TC, directed_path(3))
        assert fix.contains("T", (0, 2))
        before = INCREMENTAL.dred_applies
        fix.apply(Delta(add_facts=[("E", (2, 0))]))
        assert fix.contains("T", (2, 1))
        assert INCREMENTAL.dred_applies == before + 1
        want = evaluate_semi_naive(TC, fix.structure).relations
        assert fix.relation("T") == set(want["T"])

    def test_deletion_overdeletes_and_rederives(self):
        # Two parallel paths 0->1->3 and 0->2->3 plus direct 0->3:
        # deleting one path leaves T(0,3) rederivable.
        s = Structure(
            GRAPH,
            range(4),
            {"E": [(0, 1), (1, 3), (0, 2), (2, 3)]},
        )
        fix = IncrementalFixpoint(TC, s)
        assert fix.contains("T", (0, 3))
        over = INCREMENTAL.dred_overdeleted
        reder = INCREMENTAL.dred_rederived
        fix.apply(Delta(remove_facts=[("E", (0, 1))]))
        assert fix.contains("T", (0, 3))  # rederived via 0->2->3
        assert not fix.contains("T", (0, 1))
        assert INCREMENTAL.dred_overdeleted > over
        assert INCREMENTAL.dred_rederived > reder
        want = evaluate_semi_naive(TC, fix.structure).relations
        assert fix.relation("T") == set(want["T"])

    def test_decide_is_trivalent(self):
        fix = IncrementalFixpoint(TC, directed_path(4))
        assert fix.decide("T", (0, 3)).is_true
        assert fix.decide("T", (3, 0)).is_false

    def test_governor_trip_invalidates_state(self):
        fix = IncrementalFixpoint(TC, directed_path(6))
        fix.relation("T")
        before = INCREMENTAL.dred_full_recomputes
        with governed(budget=5):
            with pytest.raises(BudgetExceededError):
                fix.apply(Delta(add_facts=[("E", (5, 0))]))
        assert INCREMENTAL.dred_full_recomputes == before + 1
        # The half-maintained state was discarded: the next query
        # recomputes from scratch and is exact.
        want = evaluate_semi_naive(TC, fix.structure).relations
        assert fix.relation("T") == set(want["T"])

    def test_decide_unknown_under_budget(self):
        fix = IncrementalFixpoint(TC, directed_path(8))
        with governed(budget=3):
            verdict = fix.decide("T", (0, 7))
        assert verdict.is_unknown
        assert fix.decide("T", (0, 7)).is_true


# ----------------------------------------------------------------------
# Satellite: stats --reset covers every counter family
# ----------------------------------------------------------------------
class TestStatsResetRegression:
    def test_reset_zeroes_distributed_and_journal_counters(self, tmp_path):
        engine = HomEngine()
        # Journal activity.
        journal = SweepJournal(str(tmp_path / "journal.jsonl"))
        journal.record("k1", {"v": 1})
        journal.record("k1", {"v": 2})
        journal.compact()
        # Lease activity.
        manager = LeaseManager(str(tmp_path / "shards"), "r1", ttl_s=30.0)
        lease = manager.claim(0)
        lease = manager.renew(lease)
        manager.release(lease)
        snap = DISTRIBUTED.snapshot()
        assert snap["journal_records"] >= 2
        assert snap["journal_compactions"] >= 1
        assert snap["lease_claims"] >= 1
        assert snap["lease_renewals"] >= 1
        assert snap["lease_releases"] >= 1
        engine.reset_stats()
        assert all(v == 0 for v in DISTRIBUTED.snapshot().values())
        assert all(
            v == 0 for v in INCREMENTAL.snapshot().values()
        )

    def test_snapshot_has_incremental_and_distributed_sections(self):
        snap = HomEngine().snapshot()
        assert "incremental" in snap
        assert "distributed" in snap
        assert "incr_evictions" in snap["incremental"]
        assert "lease_claims" in snap["distributed"]
