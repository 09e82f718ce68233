"""The shard-lease protocol: claims, heartbeats, fencing, contention.

The centrepiece is the 200-trial seeded contention campaign: two live
processes race an :func:`os.open`-``O_EXCL`` fence-marker CAS for the
same shard on every trial, and the protocol must never let both win —
exactly one owner per trial, fencing tokens strictly increasing across
the campaign.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.distributed.leases import (
    CLAIMED,
    DAMAGED,
    EXPIRED,
    FREE,
    RELEASED,
    RUNNING,
    LeaseManager,
)
from repro.distributed.sharding import fence_marker_path, lease_path
from repro.exceptions import LeaseError, LeaseLostError, ValidationError
from repro.parallel.retry import RetryPolicy

TTL = 30.0


class FakeClock:
    """A settable wall clock for expiring leases without sleeping."""

    def __init__(self, now=1_000_000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# The state machine
# ---------------------------------------------------------------------------
def test_claim_starts_at_fence_one(tmp_path):
    manager = LeaseManager(str(tmp_path), "r1", ttl_s=TTL)
    lease = manager.claim(0)
    assert lease is not None
    assert lease.fence == 1
    assert lease.state == CLAIMED
    assert not lease.stolen
    assert os.path.exists(lease_path(str(tmp_path), 0))
    assert os.path.exists(fence_marker_path(str(tmp_path), 0, 1))


def test_valid_lease_blocks_other_claimants(tmp_path):
    m1 = LeaseManager(str(tmp_path), "r1", ttl_s=TTL)
    m2 = LeaseManager(str(tmp_path), "r2", ttl_s=TTL)
    assert m1.claim(0) is not None
    assert m2.claim(0) is None
    assert m2.observe(0)["state"] == CLAIMED


def test_lifecycle_claim_start_renew_release(tmp_path):
    manager = LeaseManager(str(tmp_path), "r1", ttl_s=TTL)
    lease = manager.claim(3)
    lease = manager.start(lease)
    assert lease.state == RUNNING
    assert manager.observe(3)["state"] == RUNNING
    before = lease.heartbeat_unix
    time.sleep(0.01)
    lease = manager.renew(lease)
    assert lease.heartbeat_unix > before
    lease = manager.release(lease)
    assert lease.state == RELEASED
    assert manager.observe(3)["state"] == RELEASED


def test_released_shard_reclaims_at_next_fence(tmp_path):
    m1 = LeaseManager(str(tmp_path), "r1", ttl_s=TTL)
    m2 = LeaseManager(str(tmp_path), "r2", ttl_s=TTL)
    m1.release(m1.start(m1.claim(0)))
    lease = m2.claim(0)
    assert lease is not None
    assert lease.fence == 2
    assert not lease.stolen  # a clean handoff is not a steal


def test_expired_lease_is_stolen_and_old_owner_fenced(tmp_path):
    clock = FakeClock()
    victim = LeaseManager(str(tmp_path), "victim", ttl_s=5.0, clock=clock)
    thief = LeaseManager(str(tmp_path), "thief", ttl_s=5.0, clock=clock)
    held = victim.start(victim.claim(0))

    # Heartbeats fresh: not stealable.
    assert thief.claim(0) is None

    clock.advance(6.0)  # past the TTL without a renewal
    assert thief.observe(0)["state"] == EXPIRED
    stolen = thief.claim(0)
    assert stolen is not None
    assert stolen.stolen
    assert stolen.fence == 2

    # The victim discovers the theft at its next heartbeat.
    with pytest.raises(LeaseLostError) as excinfo:
        victim.renew(held)
    assert excinfo.value.holder == "thief"
    assert excinfo.value.holder_fence == 2
    assert excinfo.value.fence == 1


def test_fenced_out_owner_cannot_release_either(tmp_path):
    clock = FakeClock()
    victim = LeaseManager(str(tmp_path), "victim", ttl_s=5.0, clock=clock)
    thief = LeaseManager(str(tmp_path), "thief", ttl_s=5.0, clock=clock)
    held = victim.start(victim.claim(0))
    clock.advance(6.0)
    assert thief.claim(0) is not None
    with pytest.raises(LeaseLostError):
        victim.release(held)


def test_higher_fenced_owner_self_heals_a_raced_lease_file(tmp_path):
    """A slower lower-fenced writer that races the lease file back is
    overwritten at the higher-fenced owner's next renewal."""
    clock = FakeClock()
    victim = LeaseManager(str(tmp_path), "victim", ttl_s=5.0, clock=clock)
    thief = LeaseManager(str(tmp_path), "thief", ttl_s=5.0, clock=clock)
    held = victim.start(victim.claim(0))
    clock.advance(6.0)
    stolen = thief.claim(0)
    # Simulate the victim's in-flight lease write landing *after* the
    # steal (LeaseManager refuses to regress, so write the file raw).
    with open(lease_path(str(tmp_path), 0), "w", encoding="utf-8") as fh:
        json.dump(held.payload(), fh)
    assert victim.read(0)["fence"] == 1
    renewed = thief.renew(stolen)
    assert renewed.fence == 2
    assert thief.read(0)["fence"] == 2
    assert thief.read(0)["owner"] == "thief"


def test_equal_fence_different_owner_is_a_protocol_error(tmp_path):
    manager = LeaseManager(str(tmp_path), "r1", ttl_s=TTL)
    lease = manager.claim(0)
    payload = lease.payload()
    payload["owner"] = "imposter"
    with open(lease_path(str(tmp_path), 0), "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    with pytest.raises(LeaseError):
        manager.renew(lease)


def test_damaged_lease_file_is_claimable_and_markers_bound_fences(tmp_path):
    manager = LeaseManager(str(tmp_path), "r1", ttl_s=TTL)
    lease = manager.claim(0)
    lease = manager.start(lease)
    with open(lease_path(str(tmp_path), 0), "w", encoding="utf-8") as fh:
        fh.write("\x00garbage{{{")
    assert manager.observe(0)["state"] == DAMAGED
    assert manager.highest_fence(0) == 1  # markers survive the damage
    other = LeaseManager(str(tmp_path), "r2", ttl_s=TTL)
    reclaimed = other.claim(0)
    assert reclaimed is not None
    assert reclaimed.fence == 2  # strictly above every issued token


def test_observe_free_shard(tmp_path):
    manager = LeaseManager(str(tmp_path), "r1", ttl_s=TTL)
    observed = manager.observe(9)
    assert observed["state"] == FREE
    assert observed["fence"] == 0


def test_validation(tmp_path):
    with pytest.raises(ValidationError):
        LeaseManager(str(tmp_path), "", ttl_s=TTL)
    with pytest.raises(ValidationError):
        LeaseManager(str(tmp_path), "r1", ttl_s=0.0)


# ---------------------------------------------------------------------------
# Two-process contention
# ---------------------------------------------------------------------------
CAMPAIGN_TRIALS = 200
CAMPAIGN_SHARD = 0
CAMPAIGN_TIMEOUT_S = 120


def _campaign_worker(shard_dir, owner, barrier, queue, trials):
    """One contender: every trial, rendezvous at the barrier then race
    to claim the same shard.  A winner holds the lease until both
    contenders have tried (released any earlier, the loser could
    legally claim it with the next fence), then releases it so the
    next trial starts from a released lease."""
    manager = LeaseManager(shard_dir, owner, ttl_s=30.0)
    for trial in range(trials):
        barrier.wait(CAMPAIGN_TIMEOUT_S)
        lease = manager.claim(CAMPAIGN_SHARD)
        barrier.wait(CAMPAIGN_TIMEOUT_S)  # both contenders have tried
        if lease is not None:
            manager.release(lease)
        queue.put((trial, owner, None if lease is None else lease.fence))
        barrier.wait(CAMPAIGN_TIMEOUT_S)  # trial fully settled


def test_two_process_contention_campaign_yields_one_owner(tmp_path):
    """200 seeded trials of two live processes racing the same shard:
    exactly one claim wins each trial and the winning fencing tokens
    strictly increase."""
    ctx = multiprocessing.get_context("fork")
    barrier = ctx.Barrier(2)
    queue = ctx.Queue()
    contenders = [
        ctx.Process(
            target=_campaign_worker,
            args=(str(tmp_path), owner, barrier, queue, CAMPAIGN_TRIALS),
        )
        for owner in ("alpha", "beta")
    ]
    for proc in contenders:
        proc.start()
    try:
        outcomes = [
            queue.get(timeout=CAMPAIGN_TIMEOUT_S)
            for _ in range(2 * CAMPAIGN_TRIALS)
        ]
        for proc in contenders:
            proc.join(timeout=CAMPAIGN_TIMEOUT_S)
            assert proc.exitcode == 0
    finally:
        for proc in contenders:
            if proc.is_alive():  # pragma: no cover - only on test bug
                proc.kill()
                proc.join()

    by_trial = {}
    for trial, owner, fence in outcomes:
        by_trial.setdefault(trial, []).append((owner, fence))
    assert len(by_trial) == CAMPAIGN_TRIALS
    previous_fence = 0
    for trial in range(CAMPAIGN_TRIALS):
        winners = [(o, f) for o, f in by_trial[trial] if f is not None]
        assert len(winners) == 1, (
            f"trial {trial}: expected exactly one owner, got "
            f"{by_trial[trial]}"
        )
        fence = winners[0][1]
        assert fence > previous_fence, (
            f"trial {trial}: fencing token did not increase "
            f"({fence} after {previous_fence})"
        )
        previous_fence = fence
    # One token issued per trial, none skipped, none reused.
    assert previous_fence == CAMPAIGN_TRIALS


def test_claim_race_loser_backs_off_and_wins_later(tmp_path):
    """The loser's protocol: back off on the crc32-jitter RetryPolicy
    schedule, re-inspect, and claim once the shard is released."""
    policy = RetryPolicy(max_attempts=10, base_delay=0.001,
                        max_delay=0.01, jitter=0.5)
    winner = LeaseManager(str(tmp_path), "winner", ttl_s=TTL)
    loser = LeaseManager(str(tmp_path), "loser", ttl_s=TTL)
    held = winner.claim(0)
    assert held is not None

    lease = None
    for attempt in range(10):
        lease = loser.claim(0)
        if lease is not None:
            break
        delay = policy.delay(attempt, "loser")
        assert delay >= 0.0
        time.sleep(delay)
        if attempt == 2:
            winner.release(held)
    assert lease is not None
    assert lease.owner == "loser"
    assert lease.fence == held.fence + 1
