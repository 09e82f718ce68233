"""Chaos campaign: seeded fault injection against every public decider.

Drives the harness in :mod:`tests.chaos` for hundreds of reproducible
trials and asserts the governor's core robustness contract:

* no trial ever produces an *invalid* outcome — every operation either
  completes correctly, reports an honest UNKNOWN, or raises a typed
  :class:`~repro.exceptions.ReproError`;
* every fault kind (deadline, budget, cancel, evict) actually fired
  during the campaign — the harness is exercising all its seams;
* after the injection storm, the shared engine's memo cache still
  agrees with :mod:`tests.oracle` on every pool pair — a fault that
  interrupts a solve must never leave a corrupted cached answer behind.

A ``signal.alarm``-based watchdog caps the whole campaign: a hang is a
contract violation this suite must convert into a failure, not a stuck
CI job (the CI chaos job adds a coreutils ``timeout`` belt on top).
"""

import os
import signal
import sys

import pytest

from repro.engine import HomEngine
from repro.resources import governed

from .chaos import (
    FAULT_KINDS,
    FaultInjector,
    run_campaign,
    run_trial,
)
from .oracle import Case, expected, respects, structure_pool

#: Seed for the campaign; CI pins it via the environment for
#: reproducible runs (see .github/workflows/ci.yml).
CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20260806"))

#: Trial count — the acceptance bar is >= 200 seeded trials.
CHAOS_TRIALS = int(os.environ.get("REPRO_CHAOS_TRIALS", "240"))

#: Whole-campaign hang cap (seconds); generous next to the observed
#: sub-minute runtime, tight next to a real hang.
WATCHDOG_S = 300


@pytest.fixture(autouse=True)
def watchdog():
    """Convert a hang into a loud failure (POSIX main thread only)."""
    if sys.platform == "win32":  # pragma: no cover
        yield
        return

    def on_alarm(signum, frame):  # pragma: no cover - only fires on a hang
        raise AssertionError(
            f"chaos watchdog: test exceeded {WATCHDOG_S}s — a governed "
            "decider hung instead of tripping"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(WATCHDOG_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def campaign(self):
        return run_campaign(CHAOS_TRIALS, base_seed=CHAOS_SEED, rate=0.02)

    def test_no_invalid_outcomes(self, campaign):
        invalid = [t for t in campaign if t.outcome == "invalid"]
        assert not invalid, (
            f"{len(invalid)}/{len(campaign)} trials violated the contract; "
            f"first: {invalid[0].operation}: {invalid[0].detail}"
        )

    def test_campaign_size_meets_bar(self, campaign):
        assert len(campaign) >= 200

    def test_faults_actually_fired(self, campaign):
        fired = {kind: 0 for kind in FAULT_KINDS}
        for trial in campaign:
            for kind, count in trial.faults.items():
                fired[kind] += count
        missing = [kind for kind, count in fired.items() if count == 0]
        assert not missing, f"fault kinds never injected: {missing} ({fired})"

    def test_faults_produce_unknowns_and_typed_errors(self, campaign):
        # The storm must actually perturb outcomes, not just fire inertly.
        disrupted = [
            t for t in campaign if t.outcome in ("unknown", "typed_error")
        ]
        completed = [t for t in campaign if t.outcome == "ok"]
        assert disrupted, "no trial was ever disrupted — injector inert?"
        assert completed, "no trial ever completed — injection rate too hot?"

    def test_every_operation_was_covered(self, campaign):
        operations = {t.operation for t in campaign}
        assert operations == {"hom", "core", "treewidth", "datalog", "pebble"}


class TestCacheIntegrityAfterInjection:
    def test_differential_oracle_post_storm(self):
        """The memo cache never serves a corrupted answer after faults.

        Storm phase: hammer one engine with injected trips across the
        pool.  Verification phase: every pool pair, queried through the
        (warm, storm-survivor) cache, must agree with the oracle.
        """
        engine = HomEngine()
        pool = structure_pool()
        for i in range(120):
            run_trial(CHAOS_SEED + 10_000 + i, engine, pool, rate=0.05)
        mismatches = []
        for source in pool:
            for target in pool:
                got = engine.exists_homomorphism(source, target)
                if got != expected(Case(source, target)).exists:
                    mismatches.append((source, target, got))
        assert not mismatches, (
            f"cache corrupted by injection: {len(mismatches)} disagreements "
            f"with the oracle; first: {mismatches[0]}"
        )

    def test_eviction_mid_campaign_keeps_witnesses_valid(self):
        engine = HomEngine()
        pool = structure_pool()
        injector = FaultInjector(
            seed=CHAOS_SEED, rate=0.1, kinds=("evict",), engine=engine
        )
        checked = 0
        with governed(injector=injector):
            for source in pool:
                for target in pool:
                    verdict = engine.decide_homomorphism(source, target)
                    if verdict.is_true:
                        case = Case(source, target)
                        assert respects(case, verdict.witness)
                        checked += 1
        assert checked > 0
        assert injector.fired["evict"] > 0


class TestInjectorDeterminism:
    def test_same_seed_same_outcomes(self):
        first = run_campaign(40, base_seed=CHAOS_SEED, rate=0.05)
        second = run_campaign(40, base_seed=CHAOS_SEED, rate=0.05)
        assert [(t.operation, t.outcome) for t in first] == [
            (t.operation, t.outcome) for t in second
        ]
