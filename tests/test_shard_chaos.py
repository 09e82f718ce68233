"""Shard-kill chaos: SIGKILL runners mid-sweep, survivors steal, the
merged report equals a single-host run.

The campaign (mirrored by the ``shard-chaos`` CI job):

1. runner ``r0`` starts alone on a sleepy grid and is SIGKILLed after
   its journal shows real progress — a genuine mid-write kill;
2. runners ``r1`` and ``r2`` start, claim the free shards, and steal
   ``r0``'s expired lease (observed as a fencing token bump);
3. the *thief* is SIGKILLed too (the double-kill), leaving one
   survivor to steal the twice-orphaned shard and finish everything;
4. the merged, fence-resolved journals must equal a single-host
   baseline run of the same grid, modulo wall-clock fields.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro.distributed import merge_journals, shard_journal_paths
from repro.distributed.leases import LeaseManager
from repro.distributed.merge import normalize_results
from repro.distributed.sharding import journal_dir
from repro.parallel.executor import run_sweep
from repro.parallel.faults import faulty_task

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from _shard_runner import chaos_grid  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
RUNNER = os.path.join(REPO_ROOT, "tests", "_shard_runner.py")

SHARDS = 4
INSTANCES = 16
WORK_S = 0.25
TTL_S = 1.2
HEARTBEAT_S = 0.25
CAMPAIGN_TIMEOUT_S = 90

GRID = chaos_grid(INSTANCES, WORK_S)
GRID_KEYS = [key for key, _ in GRID]


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _spawn(shard_dir, runner_id):
    config = {
        "shard_dir": str(shard_dir),
        "shards": SHARDS,
        "runner_id": runner_id,
        "instances": INSTANCES,
        "work_s": WORK_S,
        "ttl": TTL_S,
        "heartbeat": HEARTBEAT_S,
        "max_wait": 60.0,
    }
    return subprocess.Popen(
        [sys.executable, RUNNER, json.dumps(config)],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )


def _journal_records(shard_dir):
    total = 0
    directory = journal_dir(str(shard_dir))
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def _wait_for(predicate, timeout_s, interval_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval_s)
    return None


def _sigkill(proc):
    """SIGKILL the runner's process group: a dead host takes its pool
    workers with it instead of leaving them blocked on a dead pipe."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - the group is gone
        pass
    proc.wait(timeout=30)


def _stolen_shard(shard_dir):
    """The (shard, owner) of the first fence token >= 2 seen in the
    lease directory — a steal happened."""
    manager = LeaseManager(str(shard_dir), "observer", ttl_s=TTL_S)
    for shard in range(SHARDS):
        if manager.highest_fence(shard) >= 2:
            payload = manager.read(shard)
            if payload is not None and payload.get("fence", 0) >= 2:
                return shard, payload.get("owner")
    return None


def _baseline():
    outcome = run_sweep(faulty_task, GRID, workers=4, hard_timeout_s=15.0)
    assert outcome.failed == 0
    return normalize_results(outcome.results)


def test_shard_kill_chaos_campaign(tmp_path):
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()

    # Phase 1: r0 alone, killed after genuine journaled progress.
    victim = _spawn(shard_dir, "r0")
    progressed = _wait_for(
        lambda: _journal_records(shard_dir) >= 1, CAMPAIGN_TIMEOUT_S
    )
    assert progressed, "r0 never journaled a record"
    _sigkill(victim)
    assert victim.returncode == -signal.SIGKILL
    records_at_kill = _journal_records(shard_dir)
    assert records_at_kill < INSTANCES, "r0 finished before the kill"

    # Phase 2: two fresh runners; one steals r0's expired lease.
    survivors = {name: _spawn(shard_dir, name) for name in ("r1", "r2")}
    theft = _wait_for(
        lambda: _stolen_shard(shard_dir), CAMPAIGN_TIMEOUT_S
    )
    assert theft, "no runner stole r0's expired lease"
    stolen_shard, thief = theft
    assert thief in survivors, f"unexpected thief {thief!r}"

    # Phase 3: double-kill — the thief dies too.
    _sigkill(survivors[thief])
    (last_name,) = [name for name in survivors if name != thief]
    last = survivors[last_name]

    stdout, _ = last.communicate(timeout=CAMPAIGN_TIMEOUT_S)
    assert last.returncode == 0, (
        f"the last survivor {last_name} did not complete the sweep"
    )
    final = json.loads(stdout)
    assert final["complete"]
    # The survivor (or the thief, before dying) re-claimed the stolen
    # shard at a fence above the thief's.
    manager = LeaseManager(str(shard_dir), "observer", ttl_s=TTL_S)
    assert manager.highest_fence(stolen_shard) >= 2

    # Phase 4: the merged journals equal a single-host run.
    report = merge_journals(
        shard_journal_paths(str(shard_dir), SHARDS),
        expected_keys=GRID_KEYS,
    )
    assert report.missing == []
    assert report.unexpected == []
    assert report.corrupt_lines == 0
    assert normalize_results(report.results) == _baseline()

    # Two SIGKILLs may legitimately tear journal tails ("recovered")
    # and strand stale-fence lines ("fenced_out") — but nothing may be
    # silently lost, which the equality above already proves.  The CLI
    # classifies any fenced-out lines as findings (exit 2), clean runs
    # as 0.
    from repro.cli import main as cli_main

    code = cli_main([
        "merge-journals", "--shard-dir", str(shard_dir),
        "--shards", str(SHARDS),
    ])
    assert code == (0 if report.clean else 2)


def test_killed_runner_leaves_resumable_state(tmp_path):
    """One kill, one successor, no concurrency: the minimal recovery
    path the bigger campaign builds on."""
    shard_dir = tmp_path / "shards"
    shard_dir.mkdir()
    victim = _spawn(shard_dir, "solo")
    assert _wait_for(
        lambda: _journal_records(shard_dir) >= 1, CAMPAIGN_TIMEOUT_S
    )
    _sigkill(victim)

    successor = _spawn(shard_dir, "heir")
    stdout, _ = successor.communicate(timeout=CAMPAIGN_TIMEOUT_S)
    assert successor.returncode == 0, "successor did not converge"
    final = json.loads(stdout)
    assert final["complete"]

    report = merge_journals(
        shard_journal_paths(str(shard_dir), SHARDS),
        expected_keys=GRID_KEYS,
    )
    assert report.missing == []
    assert normalize_results(report.results) == _baseline()
