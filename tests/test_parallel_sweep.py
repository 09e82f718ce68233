"""The parallel governed sweep executor (:mod:`repro.parallel`).

Covers the executor's contract end to end: deterministic result
ordering, per-instance governor classification (``ok`` / ``unknown`` /
``error``), journal kill-resume, chunking, graceful degradation to the
serial path when process pools break, and the real multi-process path
(which also proves the per-instance governor is re-installed *inside*
the workers).
"""

import logging
import os
import signal
import time

import pytest

from repro.exceptions import ValidationError
from repro.parallel import (
    SWEEPS,
    RetryPolicy,
    get_sweep,
    run_sweep,
    serial_map,
)
from repro.parallel.faults import _claim_sentinel, faulty_task
from repro.parallel.retry import INFRA_FAULTS, InstanceAttempts
from repro.parallel.supervisor import SweepSupervisor
from repro.parallel.sweeps import (
    build_graph,
    build_structure,
    filter_instances,
    hom_task,
    treewidth_task,
)
from repro.resources import GOVERNOR, SweepJournal


def _square(spec):
    return spec * spec


def _checkpointing_task(spec):
    """Burn governed checkpoints so a budget of 0 trips immediately."""
    from repro.resources import current_context

    context = current_context()
    for _ in range(spec):
        context.checkpoint("test.parallel")
    return spec


def _flaky_task(spec):
    if spec == "boom":
        raise ValueError("intentional test failure")
    return spec


def _stubborn_or_fault(spec):
    """``("stubborn", sentinel, seconds)``: the first attempt creates
    ``sentinel``, ignores SIGTERM and sleeps; later attempts return.
    ``("crash-after", sentinel)``: wait for ``sentinel``, then die.
    Anything else is a :func:`faulty_task` spec."""
    if spec[0] == "stubborn":
        _, sentinel, seconds = spec
        if _claim_sentinel(sentinel):
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(seconds)
        return {"value": "stubborn"}
    if spec[0] == "crash-after":
        deadline = time.monotonic() + 5.0
        while not os.path.exists(spec[1]) and time.monotonic() < deadline:
            time.sleep(0.01)
        return faulty_task(("crash-always",))
    return faulty_task(spec)


def _instances(n=5):
    return [(f"i{k}", k) for k in range(n)]


# ----------------------------------------------------------------------
# Serial path
# ----------------------------------------------------------------------
def test_serial_sweep_computes_everything_in_order():
    outcome = run_sweep(_square, _instances())
    assert outcome.computed == outcome.instances == 5
    assert outcome.failed == outcome.unknown == outcome.resumed == 0
    assert not outcome.parallel
    assert list(outcome.results) == [f"i{k}" for k in range(5)]
    assert [r["result"] for r in outcome.results.values()] == [
        0, 1, 4, 9, 16
    ]
    assert all(r["status"] == "ok" for r in outcome.results.values())


def test_one_bad_instance_is_classified_not_fatal():
    instances = [("ok-1", "a"), ("bad", "boom"), ("ok-2", "b")]
    outcome = run_sweep(_flaky_task, instances)
    assert outcome.computed == 3
    assert outcome.failed == 1
    assert outcome.results["bad"]["status"] == "error"
    assert outcome.results["bad"]["error"] == "ValueError"
    assert outcome.results["ok-2"]["status"] == "ok"


def test_budget_trips_are_honest_unknowns():
    outcome = run_sweep(_checkpointing_task, _instances(4), budget=0)
    # spec 0 never checkpoints, specs 1..3 trip their budget of 0
    assert outcome.results["i0"]["status"] == "ok"
    assert outcome.unknown == 3
    assert all(
        outcome.results[f"i{k}"]["status"] == "unknown" for k in (1, 2, 3)
    )
    assert outcome.failed == 0


def test_unique_keys_and_chunksize_are_validated():
    with pytest.raises(ValidationError):
        run_sweep(_square, [("dup", 1), ("dup", 2)])
    with pytest.raises(ValidationError):
        run_sweep(_square, _instances(), chunksize=0)


# ----------------------------------------------------------------------
# Journal resume
# ----------------------------------------------------------------------
def test_journal_resume_skips_finished_instances(tmp_path):
    journal_path = str(tmp_path / "sweep.jsonl")
    first = run_sweep(
        _square, _instances(), journal=SweepJournal(journal_path)
    )
    assert first.computed == 5 and first.resumed == 0

    second = run_sweep(
        _square, _instances(), journal=SweepJournal(journal_path)
    )
    assert second.computed == 0
    assert second.resumed == 5
    # resumed records are served from the journal, order preserved
    assert list(second.results) == list(first.results)
    assert [r["result"] for r in second.results.values()] == [
        0, 1, 4, 9, 16
    ]


def test_journal_resume_after_partial_kill(tmp_path):
    """A journal holding a prefix (as a killed sweep leaves behind)
    makes the rerun compute exactly the missing suffix."""
    journal_path = str(tmp_path / "sweep.jsonl")
    partial = SweepJournal(journal_path)
    serial_map(_square, _instances()[:2], journal=partial)

    outcome = run_sweep(
        _square, _instances(), journal=SweepJournal(journal_path)
    )
    assert outcome.resumed == 2
    assert outcome.computed == 3
    assert [r["result"] for r in outcome.results.values()] == [
        0, 1, 4, 9, 16
    ]


def test_fresh_discards_the_journal(tmp_path):
    journal_path = str(tmp_path / "sweep.jsonl")
    run_sweep(_square, _instances(), journal=SweepJournal(journal_path))
    outcome = run_sweep(
        _square, _instances(), journal=SweepJournal(journal_path), fresh=True
    )
    assert outcome.computed == 5 and outcome.resumed == 0


# ----------------------------------------------------------------------
# Parallel path and its degradation
# ----------------------------------------------------------------------
def test_broken_pool_degrades_to_serial(monkeypatch):
    """If the process pool cannot even be created, the sweep silently
    completes on the in-process path."""
    import concurrent.futures

    class _Broken:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this sandbox")

    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor", _Broken
    )
    outcome = run_sweep(_square, _instances(), workers=4)
    assert not outcome.parallel
    assert outcome.computed == 5
    assert [r["result"] for r in outcome.results.values()] == [
        0, 1, 4, 9, 16
    ]


def test_multiprocess_sweep_runs_registry_task():
    """The real pool path, using a picklable registry task; chunking
    keeps the result order deterministic."""
    instances = get_sweep("hom").instances()[:4]
    outcome = run_sweep(
        hom_task, instances, workers=2, deadline_s=30, chunksize=2,
        mode="test-hom",
    )
    assert outcome.computed == 4
    assert outcome.failed == 0
    assert list(outcome.results) == [key for key, _ in instances]
    # odd cycles are not 2-colorable: the first rows are refutations
    assert outcome.results[instances[0][0]]["result"]["verdict"] == "FALSE"


def test_multiprocess_governor_reinstalled_inside_workers():
    """A budget of 0 must trip inside every worker process — proving
    the per-instance governor travels into the pool.  The trivalent
    decider absorbs the trip, so it surfaces as an honest UNKNOWN
    verdict rather than an executor-level unknown record."""
    instances = get_sweep("hom").instances()[:3]
    outcome = run_sweep(hom_task, instances, workers=2, budget=0)
    assert outcome.computed == 3
    assert outcome.failed == 0
    assert all(
        r["status"] == "ok" and r["result"]["verdict"] == "UNKNOWN"
        for r in outcome.results.values()
    )


# ----------------------------------------------------------------------
# The supervised runtime: retries, quarantine, hard kills
# ----------------------------------------------------------------------
FAST_POLICY = RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)


def test_crash_once_instance_recovers_via_retry(tmp_path):
    """A worker SIGKILLed mid-task is retried on a rebuilt pool; the
    healthy instances are not silently lost or double-charged."""
    sentinel = str(tmp_path / "sentinel")
    instances = [
        ("a", ("ok", 1)),
        ("crash", ("crash-once", sentinel, 42)),
        ("b", ("ok", 2)),
        ("c", ("ok", 3)),
    ]
    outcome = run_sweep(
        faulty_task, instances, workers=2, retry_policy=FAST_POLICY
    )
    assert outcome.computed == 4 and outcome.failed == 0
    crash = outcome.results["crash"]
    assert crash["status"] == "ok"
    assert crash["result"] == {"value": 42, "recovered": True}
    assert outcome.results["a"]["result"]["value"] == 1
    assert outcome.retries >= 1
    assert outcome.worker_crashes >= 1
    assert outcome.pool_rebuilds >= 1


def test_poison_instance_is_quarantined_with_structured_verdict(tmp_path):
    """An instance that kills its worker on every attempt must end as a
    structured ``quarantined`` record — in the outcome AND the journal —
    while the rest of the sweep completes normally."""
    journal_path = str(tmp_path / "journal.jsonl")
    instances = [
        ("a", ("ok", 1)),
        ("poison", ("crash-always",)),
        ("b", ("ok", 2)),
    ]
    outcome = run_sweep(
        faulty_task,
        instances,
        workers=2,
        retry_policy=FAST_POLICY,
        journal=SweepJournal(journal_path),
    )
    assert outcome.quarantined == 1
    record = outcome.results["poison"]
    assert record["status"] == "quarantined"
    assert record["error"] == "WorkerCrashError"
    assert record["attempts"] == FAST_POLICY.max_attempts
    assert outcome.results["a"]["status"] == "ok"
    assert outcome.results["b"]["status"] == "ok"
    # the verdict is durable: a reloaded journal serves it on resume
    replay = SweepJournal(journal_path)
    assert replay.result("poison")["status"] == "quarantined"
    resumed = run_sweep(
        faulty_task, instances, workers=2, retry_policy=FAST_POLICY,
        journal=replay,
    )
    assert resumed.resumed == 3 and resumed.computed == 0


def test_crash_shared_with_a_healthy_instance_charges_neither():
    """A healthy instance that shares the pool with a crasher twice is
    not quarantined: a crash with two instances in flight charges
    neither, and each reruns alone, where only the crasher dies."""
    outcome = run_sweep(
        faulty_task,
        [("slow", ("work", 0.5, 7)), ("poison", ("crash-always",))],
        workers=2,
        retry_policy=FAST_POLICY,
    )
    assert outcome.results["slow"]["status"] == "ok"
    assert outcome.results["slow"]["result"] == {"value": 7}
    record = outcome.results["poison"]
    assert record["status"] == "quarantined"
    assert record["error"] == "WorkerCrashError"
    assert record["attempts"] == FAST_POLICY.max_attempts
    assert outcome.quarantined == 1
    assert outcome.retries >= 2  # both shared-crash victims reran


def test_broken_pool_survivor_that_ignores_sigterm_is_killed(tmp_path):
    """A worker still busy when its pool breaks, and deaf to SIGTERM (as
    workers forked under the CLI's SIGTERM → KeyboardInterrupt handler
    are), must not hold the pool teardown until its task ends."""
    sentinel = str(tmp_path / "stubborn-started")
    started = time.monotonic()
    outcome = run_sweep(
        _stubborn_or_fault,
        [("stubborn", ("stubborn", sentinel, 30.0)),
         ("poison", ("crash-after", sentinel))],
        workers=2,
        retry_policy=FAST_POLICY,
    )
    assert time.monotonic() - started < 15.0
    assert outcome.results["stubborn"]["status"] == "ok"
    assert outcome.results["stubborn"]["result"] == {"value": "stubborn"}
    assert outcome.results["poison"]["status"] == "quarantined"


@pytest.mark.parametrize("poisons, policy", [
    (2, RetryPolicy()),
    (3, RetryPolicy(max_attempts=2, base_delay=0.01, max_delay=0.05)),
])
def test_several_poison_instances_are_all_quarantined_in_the_pool(
    poisons, policy
):
    """Alone reruns of several crashers break the pool once per
    attempt.  Those breaks charge an attempt, so they are progress and
    never trip ``pool_rebuild_limit``: every crasher is quarantined in
    the pool and none is left over for the in-process serial path."""
    pending = [(f"p{i}", ("crash-always",)) for i in range(poisons)]
    phase = SweepSupervisor(
        faulty_task, workers=poisons, retry_policy=policy,
    ).run(pending)
    assert phase.leftover == []
    assert phase.quarantined == poisons
    for key, _ in pending:
        record = phase.completed[key]
        assert record["status"] == "quarantined"
        assert record["error"] == "WorkerCrashError"
        assert record["attempts"] == policy.max_attempts


def test_noncooperative_hang_is_hard_killed_within_grace(tmp_path):
    """A task that sleeps far past its deadline without ever reaching a
    checkpoint is SIGKILLed by the watchdog at ``deadline * grace`` —
    the sweep's wall clock is bounded by supervision, not by the hang."""
    instances = [
        ("a", ("ok", 1)),
        ("hang", ("hang", 60.0, 0)),
        ("b", ("ok", 2)),
    ]
    started = time.perf_counter()
    outcome = run_sweep(
        faulty_task,
        instances,
        workers=2,
        deadline_s=0.05,
        grace_factor=2.0,
        retry_policy=FAST_POLICY,
    )
    elapsed = time.perf_counter() - started
    assert elapsed < 20, f"hang was not hard-killed ({elapsed:.1f}s)"
    record = outcome.results["hang"]
    assert record["status"] == "quarantined"
    assert record["error"] == "HardTimeoutError"
    assert outcome.hard_kills >= 1
    assert outcome.results["a"]["status"] == "ok"
    assert outcome.results["b"]["status"] == "ok"


def test_oom_style_abrupt_exit_is_survived():
    outcome = run_sweep(
        faulty_task,
        [("a", ("ok", 1)), ("oom", ("oom", 4)), ("b", ("ok", 2))],
        workers=2,
        retry_policy=FAST_POLICY,
    )
    assert outcome.results["oom"]["status"] == "quarantined"
    assert outcome.results["a"]["status"] == "ok"
    assert outcome.results["b"]["status"] == "ok"


def test_instance_errors_are_recorded_not_retried_by_default(tmp_path):
    """PR 2's contract survives supervision: a deterministic in-task
    exception is an instance failure — record and continue, no retry."""
    sentinel = str(tmp_path / "sentinel")
    outcome = run_sweep(
        faulty_task,
        [("flaky", ("flaky-error", sentinel, 9)), ("a", ("ok", 1))],
        workers=2,
        retry_policy=FAST_POLICY,
    )
    assert outcome.results["flaky"]["status"] == "error"
    assert outcome.results["flaky"]["error"] == "ValueError"
    assert outcome.retries == 0
    assert outcome.failed == 1


def test_opting_task_errors_into_retry_recovers_flaky_instances(tmp_path):
    sentinel = str(tmp_path / "sentinel")
    policy = RetryPolicy(
        max_attempts=2, base_delay=0.01,
        retryable=frozenset(INFRA_FAULTS | {"ValueError"}),
    )
    outcome = run_sweep(
        faulty_task,
        [("flaky", ("flaky-error", sentinel, 9)), ("a", ("ok", 1))],
        workers=2,
        retry_policy=policy,
    )
    assert outcome.results["flaky"]["status"] == "ok"
    assert outcome.results["flaky"]["result"]["recovered"] is True
    assert outcome.retries == 1 and outcome.failed == 0


def test_supervision_counters_reach_the_governor(tmp_path):
    GOVERNOR.reset()
    run_sweep(
        faulty_task,
        [("a", ("ok", 1)), ("poison", ("crash-always",))],
        workers=2,
        retry_policy=FAST_POLICY,
    )
    snapshot = GOVERNOR.snapshot()
    assert snapshot["retries"] >= 1
    assert snapshot["quarantines"] == 1
    assert snapshot["pool_rebuilds"] >= 1


def test_degradation_paths_are_logged_distinctly(monkeypatch, caplog):
    """Pool-infrastructure failure logs the degrade decision."""
    import concurrent.futures

    class _Broken:
        def __init__(self, *args, **kwargs):
            raise OSError("no process pool in this sandbox")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _Broken)
    with caplog.at_level(logging.WARNING, logger="repro.parallel"):
        outcome = run_sweep(_square, _instances(), workers=4)
    assert outcome.computed == 5
    messages = [r.message for r in caplog.records]
    assert any("serial" in m for m in messages), messages


def test_journal_stats_surfaced_on_outcome(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    outcome = run_sweep(
        _square, _instances(3), journal=SweepJournal(journal_path)
    )
    assert outcome.journal is not None
    assert outcome.journal["integrity"] == "ok"
    assert outcome.journal["records"] == 3
    assert outcome.journal["compacted"] is False
    assert outcome.to_dict()["journal"]["integrity"] == "ok"


def test_corrupt_journal_is_surfaced_then_compacted_clean(tmp_path):
    journal_path = str(tmp_path / "journal.jsonl")
    run_sweep(_square, _instances(4), journal=SweepJournal(journal_path))
    with open(journal_path, "r+", encoding="utf-8") as handle:
        lines = handle.readlines()
        lines[1] = lines[1].replace('"', "'", 2)
        handle.seek(0)
        handle.writelines(lines)
        handle.truncate()
    outcome = run_sweep(
        _square, _instances(4), journal=SweepJournal(journal_path)
    )
    # the damage is reported (stats captured before compaction) ...
    assert outcome.journal["corrupt"] == 1
    assert outcome.journal["integrity"] == "corrupt"
    assert outcome.journal["compacted"] is True
    # ... the damaged key was recomputed, nothing lost ...
    assert outcome.resumed == 3 and outcome.computed == 1
    assert [r["result"] for r in outcome.results.values()] == [0, 1, 4, 9]
    # ... and the compacted file is clean on the next load.
    assert SweepJournal(journal_path).journal_stats()["integrity"] == "ok"


# ----------------------------------------------------------------------
# RetryPolicy / InstanceAttempts units
# ----------------------------------------------------------------------
def test_retry_policy_validation():
    with pytest.raises(ValidationError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValidationError):
        RetryPolicy(base_delay=-1)
    with pytest.raises(ValidationError):
        RetryPolicy(jitter=2.0)


def test_retry_policy_kind_filtering():
    policy = RetryPolicy(max_attempts=3)
    assert policy.should_retry(1, "WorkerCrashError")
    assert policy.should_retry(2, "HardTimeoutError")
    assert not policy.should_retry(3, "WorkerCrashError")  # exhausted
    assert not policy.should_retry(1, "ValueError")  # not opted in
    custom = RetryPolicy(retryable=lambda kind: kind.endswith("Error"))
    assert custom.is_retryable("ValueError")
    assert not custom.is_retryable("nonsense")


def test_retry_delay_is_exponential_capped_and_deterministic():
    policy = RetryPolicy(base_delay=0.1, max_delay=0.5, jitter=0.25)
    assert policy.delay(0) == 0.0
    d1, d2, d3, d10 = (policy.delay(n, "key") for n in (1, 2, 3, 10))
    assert 0.1 <= d1 <= 0.1 * 1.25
    assert 0.2 <= d2 <= 0.2 * 1.25
    assert 0.4 <= d3 <= 0.5 * 1.25
    assert d10 <= 0.5 * 1.25  # capped forever after
    # deterministic: same key + attempt, same jitter
    assert policy.delay(2, "key") == d2
    # decorrelated: different keys jitter differently
    assert policy.delay(2, "key") != policy.delay(2, "other-key")
    # jitter-free policies are exact
    exact = RetryPolicy(base_delay=0.1, max_delay=10.0, jitter=0.0)
    assert exact.delay(3) == pytest.approx(0.4)


def test_instance_attempts_quarantine_record_shape():
    tracked = InstanceAttempts(key="k", spec=("ok", 1))
    tracked.register_fault("WorkerCrashError", "worker died", "trace...")
    tracked.register_fault("WorkerCrashError", "worker died again", "tb2")
    record = tracked.quarantine_record(elapsed_s=1.5)
    assert record == {
        "status": "quarantined",
        "error": "WorkerCrashError",
        "detail": "worker died again",
        "attempts": 2,
        "traceback": "tb2",
        "elapsed_s": 1.5,
    }


def test_filter_instances_by_substring():
    instances = get_sweep("hom").instances()
    kept = filter_instances(instances, "odd-cycle")
    assert kept and all("odd-cycle" in key for key, _ in kept)
    with pytest.raises(ValidationError):
        filter_instances(instances, "no-such-instance")


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
def test_registry_names_and_unknown_lookup():
    assert set(SWEEPS) == {"hom", "hom-batch", "cores", "treewidth"}
    with pytest.raises(ValidationError):
        get_sweep("nope")


def test_registry_specs_rebuild_and_tasks_run():
    for name, sweep in SWEEPS.items():
        instances = sweep.instances()
        keys = [key for key, _ in instances]
        assert len(set(keys)) == len(keys), f"{name}: duplicate keys"
    structure = build_structure(("undirected-cycle", (5,)))
    assert structure.size() == 5
    graph = build_graph(("grid", (2, 3)))
    assert len(graph.vertices) == 6
    with pytest.raises(ValidationError):
        build_structure(("no-such-kind", ()))
    with pytest.raises(ValidationError):
        build_graph(("no-such-kind", ()))
    record = treewidth_task(("grid", (2, 3)), limit=40)
    assert record["width"] == 2 and record["exact"]
