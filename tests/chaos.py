"""Fault-injection harness for the resource governor (library half).

The harness exploits the seam every governed decider already passes
through — :meth:`repro.resources.RunContext.checkpoint` — to simulate
governor trips at arbitrary moments: a :class:`FaultInjector` installed
as a context's ``injector`` fires (with seeded randomness) deadline
expiries, budget exhaustions, cooperative cancellations and hom-cache
evictions mid-decision, at whichever checkpoint the dice pick.

A chaos *trial* runs one public operation (homomorphism verdict, core,
treewidth-with-fallback, Datalog fixpoint, pebble game) on structures
drawn from a small reused pool (so engine cache keys recur and evictions
hit warm entries) under an injecting context, then classifies the
outcome:

* ``ok`` — the operation completed with a valid definite result;
* ``unknown`` — a trivalent API honestly reported UNKNOWN;
* ``typed_error`` — a :class:`~repro.exceptions.ReproError` subtype
  escaped (allowed for non-trivalent APIs);
* ``invalid`` — anything else: a foreign exception, a wrong-shaped
  result, or an UNKNOWN→bool coercion sneaking through.

``tests/test_chaos.py`` drives hundreds of seeded trials, asserts no
trial is ``invalid``, that each fault kind actually fired, and that the
memo cache still agrees with the shared oracle of :mod:`tests.oracle`
after the injection storm (a trip must never corrupt a cached answer).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine import HomEngine
from repro.exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    OperationCancelledError,
    ReproError,
)
from repro.parallel import RetryPolicy, run_sweep, serial_map
from repro.parallel.faults import faulty_task
from repro.resources import RunContext, SweepJournal, Verdict, governed
from repro.structures import Structure

from .oracle import Case, agrees, structure_pool

#: Per-trial wall-clock cap: even a trial whose faults never fire must
#: finish well within this (the pool instances are all sub-second), so a
#: governed deadline this long is purely an anti-hang backstop.
HANG_CAP_S = 10.0

FAULT_KINDS = ("deadline", "budget", "cancel", "evict")


# ----------------------------------------------------------------------
# The injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Seeded random fault source run at every checkpoint.

    Parameters
    ----------
    seed:
        Seeds the private RNG; trials are reproducible given the seed.
    rate:
        Per-checkpoint probability that *some* fault fires (the kind is
        then drawn uniformly from ``kinds``).
    kinds:
        The fault kinds this injector may fire (default: all four).
    engine:
        The engine whose cache the ``evict`` fault clears.
    """

    def __init__(
        self,
        seed: int,
        rate: float = 0.01,
        kinds=FAULT_KINDS,
        engine: Optional[HomEngine] = None,
    ) -> None:
        self.rng = random.Random(seed)
        self.rate = rate
        self.kinds = tuple(kinds)
        self.engine = engine
        self.fired: Dict[str, int] = {kind: 0 for kind in self.kinds}

    def __call__(self, context: RunContext, site: str) -> None:
        if self.rng.random() >= self.rate:
            return
        kind = self.rng.choice(self.kinds)
        self.fired[kind] += 1
        if kind == "deadline":
            raise DeadlineExceededError(
                f"injected deadline expiry at {site or 'unknown site'}",
                deadline_s=0.0,
                elapsed_s=0.0,
                site=site or None,
                consumed=context.consumption(),
            )
        if kind == "budget":
            raise BudgetExceededError(
                f"injected budget exhaustion at {site or 'unknown site'}",
                budget=0,
                spent=1,
                site=site or None,
                consumed=context.consumption(),
            )
        if kind == "cancel":
            context.cancel()  # surfaces via the checkpoint's own check
            return
        # "evict": perturb shared state instead of raising — the decider
        # must keep working (and stay correct) with a cold cache.  Both
        # caches go: the memo cache and the compiled-target interning.
        if self.engine is not None:
            self.engine.cache.clear()
            self.engine.compiled_targets.clear()

    def total_fired(self) -> int:
        return sum(self.fired.values())


# ----------------------------------------------------------------------
# Trials
# ----------------------------------------------------------------------
@dataclass
class TrialResult:
    """One classified chaos trial."""

    operation: str
    outcome: str  # ok | unknown | typed_error | invalid
    detail: str = ""
    faults: Dict[str, int] = field(default_factory=dict)


def _run_operation(rng: random.Random, engine: HomEngine, pool) -> TrialResult:
    """Pick and run one public operation; classify what came back."""
    op = rng.choice(("hom", "core", "treewidth", "datalog", "pebble"))
    try:
        if op == "hom":
            source, target = rng.choice(pool), rng.choice(pool)
            verdict = engine.decide_homomorphism(source, target)
            if not isinstance(verdict, Verdict):
                return TrialResult(op, "invalid", "non-Verdict result")
            if verdict.is_unknown:
                return TrialResult(op, "unknown", verdict.reason)
            if not agrees(Case(source, target), verdict.witness):
                return TrialResult(op, "invalid", "verdict or witness wrong")
            return TrialResult(op, "ok")
        if op == "core":
            structure = rng.choice(pool)
            core = engine.core(structure)
            if not isinstance(core, Structure):
                return TrialResult(op, "invalid", "non-Structure core")
            if core.size() > structure.size():
                return TrialResult(op, "invalid", "core grew")
            return TrialResult(op, "ok")
        if op == "treewidth":
            from repro.graphtheory import treewidth_with_fallback
            from repro.structures import gaifman_graph

            structure = rng.choice(pool)
            result = treewidth_with_fallback(gaifman_graph(structure))
            if result.width < 0:
                return TrialResult(op, "invalid", "negative width")
            return TrialResult(op, "ok")
        if op == "datalog":
            from repro.datalog import evaluate_semi_naive, parse_program
            from repro.structures import directed_path

            structure = directed_path(2 + rng.randrange(4))
            program = parse_program(
                "T(x, y) <- E(x, y).\nT(x, z) <- E(x, y), T(y, z).",
                structure.vocabulary.without_constants(),
            )
            result = evaluate_semi_naive(program, structure)
            n = structure.size()
            if len(result.relations["T"]) != n * (n - 1) // 2:
                return TrialResult(op, "invalid", "wrong fixpoint")
            return TrialResult(op, "ok")
        # pebble
        from repro.pebble import duplicator_wins

        source, target = rng.choice(pool), rng.choice(pool)
        wins = duplicator_wins(source, target, 2)
        if not isinstance(wins, bool):
            return TrialResult(op, "invalid", "non-bool game outcome")
        return TrialResult(op, "ok")
    except (DeadlineExceededError, BudgetExceededError,
            OperationCancelledError) as err:
        return TrialResult(op, "typed_error", f"{type(err).__name__}: {err}")
    except ReproError as err:
        return TrialResult(op, "typed_error", f"{type(err).__name__}: {err}")
    except Exception as err:  # noqa: BLE001 - the whole point of the harness
        return TrialResult(op, "invalid", f"{type(err).__name__}: {err}")


def run_trial(seed: int, engine: HomEngine, pool,
              rate: float = 0.01) -> TrialResult:
    """One seeded chaos trial under an injecting governed context."""
    rng = random.Random(seed)
    injector = FaultInjector(
        seed=seed ^ 0x5EED, rate=rate, engine=engine
    )
    with governed(deadline=HANG_CAP_S, injector=injector):
        result = _run_operation(rng, engine, pool)
    result.faults = dict(injector.fired)
    return result


def run_campaign(trials: int, base_seed: int,
                 rate: float = 0.01) -> List[TrialResult]:
    """A full chaos campaign against one shared engine and pool."""
    engine = HomEngine()
    pool = structure_pool()
    return [
        run_trial(base_seed + i, engine, pool, rate=rate)
        for i in range(trials)
    ]


# ======================================================================
# Worker-level fault campaign (the supervised sweep runtime's half)
# ======================================================================
# The injector above exercises the *cooperative* seam — governor trips
# at checkpoint() sites.  The scenarios below exercise everything that
# seam cannot express: a worker SIGKILLed mid-task, an OOM-style abrupt
# exit, a non-cooperative hang the watchdog must hard-kill, a poison
# instance that must be quarantined, and journal files torn or garbled
# between runs.  Every trial asserts the robustness contract: the sweep
# either completes with correct results or resumes losslessly — never a
# hang, never silent result loss.

#: Worker-fault scenarios, weighted so pool-churning ones (each rebuild
#: costs real wall clock) stay a minority of a large campaign.
WORKER_SCENARIOS: Tuple[Tuple[str, int], ...] = (
    ("clean", 4),           # fault-free supervised parallel sweep
    ("crash-once", 3),      # transient worker SIGKILL, retry succeeds
    ("poison-crash", 2),    # deterministic crasher -> quarantine
    ("oom", 2),             # abrupt exit 137 (OOM-killer signature)
    ("hang", 1),            # non-cooperative sleep -> watchdog SIGKILL
    ("flaky-error", 2),     # in-task exception opted into retry
    ("torn-journal", 4),    # partial final line, resume losslessly
    ("garbled-journal", 4), # checksum-failing line, resume losslessly
    ("hom-under-crash", 2), # engine verdicts stay correct across crash
)


@dataclass
class WorkerTrialResult:
    """One classified worker-fault trial."""

    scenario: str
    outcome: str  # ok | invalid
    detail: str = ""
    counters: Dict[str, int] = field(default_factory=dict)
    quarantined_keys: List[str] = field(default_factory=list)


def _scenario_for(rng: random.Random) -> str:
    names = [name for name, weight in WORKER_SCENARIOS for _ in range(weight)]
    return rng.choice(names)


def _fast_policy() -> RetryPolicy:
    return RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


def _ok_instances(rng: random.Random, count: int = 3):
    return [
        (f"ok-{i}", ("ok", rng.randrange(1000))) for i in range(count)
    ]


def _check_ok_records(outcome, instances) -> Optional[str]:
    """Silent-loss check: every healthy instance must carry its exact
    value.  Returns a failure detail or ``None``."""
    expected = {key: spec[1] for key, spec in instances if spec[0] == "ok"}
    for key, value in expected.items():
        record = outcome.results.get(key)
        if record is None:
            return f"record for {key} lost"
        if record.get("status") != "ok":
            return f"{key} not ok: {record.get('status')}"
        if record["result"]["value"] != value:
            return f"{key} value corrupted: {record['result']['value']}"
    return None


def _counters(outcome) -> Dict[str, int]:
    return {
        "retries": outcome.retries,
        "quarantined": outcome.quarantined,
        "hard_kills": outcome.hard_kills,
        "pool_rebuilds": outcome.pool_rebuilds,
        "worker_crashes": outcome.worker_crashes,
    }


def run_worker_trial(seed: int, base_dir: str) -> WorkerTrialResult:
    """One seeded worker-fault trial against the supervised runtime."""
    rng = random.Random(seed)
    scenario = _scenario_for(rng)
    trial_dir = os.path.join(base_dir, f"trial-{seed}")
    os.makedirs(trial_dir, exist_ok=True)
    journal_path = os.path.join(trial_dir, "journal.jsonl")
    try:
        return _run_worker_scenario(scenario, rng, trial_dir, journal_path)
    except Exception as err:  # noqa: BLE001 - the point of the harness
        return WorkerTrialResult(
            scenario, "invalid", f"escaped {type(err).__name__}: {err}"
        )


def _run_worker_scenario(
    scenario: str, rng: random.Random, trial_dir: str, journal_path: str
) -> WorkerTrialResult:
    policy = _fast_policy()

    if scenario == "clean":
        instances = _ok_instances(rng, 4)
        outcome = run_sweep(
            faulty_task, instances, workers=2, retry_policy=policy
        )
        detail = _check_ok_records(outcome, instances)
        if detail is None and outcome.quarantined:
            detail = "clean sweep quarantined something"
        return WorkerTrialResult(
            scenario, "invalid" if detail else "ok", detail or "",
            _counters(outcome),
        )

    if scenario in ("crash-once", "oom", "poison-crash", "hang",
                    "flaky-error"):
        instances = _ok_instances(rng, 3)
        sentinel = os.path.join(trial_dir, "sentinel")
        fault_spec = {
            "crash-once": ("crash-once", sentinel, rng.randrange(1000)),
            "oom": ("oom", 4),
            "poison-crash": ("crash-always",),
            "hang": ("hang", 30.0, 0),
            "flaky-error": ("flaky-error", sentinel, rng.randrange(1000)),
        }[scenario]
        position = rng.randrange(len(instances) + 1)
        instances.insert(position, ("fault", fault_spec))
        retryable = policy.retryable
        if scenario == "flaky-error":
            retryable = frozenset(
                {"WorkerCrashError", "HardTimeoutError", "ValueError"}
            )
        outcome = run_sweep(
            faulty_task,
            instances,
            workers=2,
            deadline_s=0.05 if scenario == "hang" else 5.0,
            grace_factor=2.0,
            retry_policy=RetryPolicy(
                max_attempts=2, base_delay=0.01, max_delay=0.05,
                retryable=retryable,
            ),
            journal=SweepJournal(journal_path),
        )
        detail = _check_ok_records(outcome, instances)
        fault_record = outcome.results.get("fault")
        if detail is None:
            if fault_record is None:
                detail = "fault record lost"
            elif scenario in ("crash-once", "flaky-error"):
                if fault_record.get("status") != "ok":
                    detail = (
                        f"transient fault did not recover: {fault_record}"
                    )
                elif not fault_record["result"].get("recovered"):
                    detail = "transient fault skipped its faulty attempt"
            elif fault_record.get("status") != "quarantined":
                detail = (
                    f"poison not quarantined: {fault_record.get('status')}"
                )
            elif scenario == "hang" and (
                fault_record.get("error") != "HardTimeoutError"
            ):
                detail = f"hang ended as {fault_record.get('error')}"
        # The journal must agree with the in-memory outcome (resume
        # losslessly === journal holds exactly what the report says).
        if detail is None:
            replay = SweepJournal(journal_path)
            for key, _ in instances:
                if replay.result(key) != outcome.results[key]:
                    detail = f"journal diverges from outcome at {key}"
                    break
        return WorkerTrialResult(
            scenario, "invalid" if detail else "ok", detail or "",
            _counters(outcome),
            [k for k, r in outcome.results.items()
             if r and r.get("status") == "quarantined"],
        )

    if scenario in ("torn-journal", "garbled-journal"):
        instances = _ok_instances(rng, 5)
        # Phase 1: a partial run journals a prefix (as a killed sweep
        # would leave behind) ...
        prefix = rng.randrange(1, len(instances))
        serial_map(
            faulty_task, instances[:prefix],
            journal=SweepJournal(journal_path),
        )
        # ... then the crash damages the journal.
        if scenario == "torn-journal":
            with open(journal_path, "a", encoding="utf-8") as handle:
                handle.write('{"v": 2, "crc": "00000000", "entry": {"k')
        else:
            with open(journal_path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
            victim = rng.randrange(len(lines))
            lines[victim] = lines[victim].replace('"', "'", 2)
            with open(journal_path, "w", encoding="utf-8") as handle:
                handle.writelines(lines)
        # Phase 2: resume; damaged records are recomputed, intact ones
        # are reused, and the merged outcome must be complete + correct.
        journal = SweepJournal(journal_path)
        pre_stats = journal.journal_stats()
        outcome = run_sweep(
            faulty_task, instances, workers=2, retry_policy=policy,
            journal=journal,
        )
        detail = _check_ok_records(outcome, instances)
        if detail is None and outcome.resumed + outcome.computed != len(
            instances
        ):
            detail = "resume arithmetic broken"
        if detail is None and scenario == "torn-journal":
            if pre_stats["torn_tail"] != 1:
                detail = f"torn tail not detected: {pre_stats}"
        if detail is None and scenario == "garbled-journal":
            if pre_stats["corrupt"] != 1 and prefix > 0:
                detail = f"garbled line not counted: {pre_stats}"
        if detail is None:
            # A second reload must find a fully clean journal.
            final = SweepJournal(journal_path).journal_stats()
            if final["integrity"] != "ok":
                detail = f"journal not clean after resume: {final}"
        return WorkerTrialResult(
            scenario, "invalid" if detail else "ok", detail or "",
            _counters(outcome),
        )

    if scenario == "hom-under-crash":
        # Kernel/reference agreement must survive worker crashes: run
        # real engine verdicts next to a crashing instance and check
        # them against ground truth.
        from repro.parallel.sweeps import hom_task

        sentinel = os.path.join(trial_dir, "sentinel")
        hom_instances = [
            ("odd-cycle", (("undirected-cycle", (7,)),
                           ("undirected-path", (2,)))),
            ("path-in-cycle", (("directed-path", (3,)),
                               ("undirected-cycle", (4,)))),
        ]
        outcome = run_sweep(
            _hom_or_fault_task,
            [("crash", ("fault", ("crash-once", sentinel, 1)))] + [
                (key, ("hom", spec)) for key, spec in hom_instances
            ],
            workers=2,
            deadline_s=10.0,
            retry_policy=policy,
            journal=SweepJournal(journal_path),
        )
        detail = None
        expected = {"odd-cycle": "FALSE", "path-in-cycle": "TRUE"}
        for key, verdict in expected.items():
            record = outcome.results.get(key)
            if record is None or record.get("status") != "ok":
                detail = f"hom instance {key} lost under crash: {record}"
                break
            if record["result"]["verdict"] != verdict:
                detail = (
                    f"hom verdict corrupted under crash: {key} gave "
                    f"{record['result']['verdict']}, wanted {verdict}"
                )
                break
        if detail is None:
            crash = outcome.results.get("crash")
            if crash is None or crash.get("status") != "ok":
                detail = f"crash instance did not recover: {crash}"
        return WorkerTrialResult(
            scenario, "invalid" if detail else "ok", detail or "",
            _counters(outcome),
        )

    return WorkerTrialResult(scenario, "invalid", "unknown scenario")


def _hom_or_fault_task(spec):
    """Top-level picklable dispatcher mixing engine work with faults."""
    kind, payload = spec
    if kind == "hom":
        from repro.parallel.sweeps import hom_task

        return hom_task(payload)
    return faulty_task(payload)


def run_worker_campaign(
    trials: int, base_seed: int, base_dir: str
) -> List[WorkerTrialResult]:
    """A full seeded worker-fault campaign (one tmp dir per trial)."""
    return [
        run_worker_trial(base_seed + i, base_dir) for i in range(trials)
    ]
