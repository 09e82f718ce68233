"""The shard-lease protocol: atomic claims, heartbeats, fencing tokens.

One lease file per shard says who is allowed to run it.  The life of a
lease is a small state machine::

             claim()                start()
    (free) ──────────▶ CLAIMED ──────────▶ RUNNING
                          ▲                │  │
          fence+1, steal  │        renew() │  │ release()
                          │      (heartbeat│  ▼
    EXPIRED ◀─────────────┴──── stops) ◀───┘ RELEASED
       │
       └── claim() by another runner ──▶ STOLEN (observed by the old
           owner as :class:`~repro.exceptions.LeaseLostError` at its
           next heartbeat)

``CLAIMED``/``RUNNING``/``RELEASED`` are written states; ``EXPIRED``
and ``STOLEN`` are *derived* — a lease whose heartbeat is older than
its TTL is expired no matter what the file says, and a runner learns it
was stolen when the on-disk fencing token is no longer its own.

Atomicity on a plain POSIX filesystem, with no server and no locks:

* **Token issuance is the compare-and-swap.**  Claiming a shard at
  fencing token ``n`` requires creating the *fence marker*
  ``shard-XXXX.fence-n`` with ``O_CREAT | O_EXCL`` — exactly one
  process can succeed, so every token is issued exactly once and
  tokens strictly increase (``n`` is computed as one past the highest
  existing marker, and the marker for ``n`` exists before any lease
  file ever carries ``n``).
* **The lease file is the observable state**, replaced atomically via
  tmp + fsync + rename (+ directory fsync).  A torn or garbled lease
  file therefore cannot occur on a crash; if one appears anyway (bit
  rot), the markers still bound the token sequence and the shard is
  treated as claimable.
* **Writers cannot regress the token.**  Renewal re-reads the file
  first: a higher token on disk means the lease was stolen
  (:class:`~repro.exceptions.LeaseLostError`); a *lower* token means a
  slower, lower-fenced writer raced the file back — the higher-fenced
  owner rewrites it (self-heal) and the lower-fenced owner is fenced
  off at its own next renewal.  Journal correctness never depends on
  this file: every shard-journal record carries its writer's token and
  ``repro merge-journals`` keeps only the highest valid one per key.
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Optional

from ..exceptions import LeaseError, LeaseLostError, ValidationError
from ..resources.checkpointing import _fsync_dir, _replace_file
from ..resources.governor import DISTRIBUTED
from .sharding import fence_marker_path, lease_dir, lease_path

#: Default seconds a lease stays valid past its last heartbeat.  Three
#: missed heartbeats at the default interval (TTL/3) expire it.
DEFAULT_LEASE_TTL_S = 30.0

#: Written lease states.
CLAIMED = "claimed"
RUNNING = "running"
RELEASED = "released"

#: Derived states reported by :meth:`LeaseManager.observe`.
FREE = "free"
EXPIRED = "expired"
DAMAGED = "damaged"

_FENCE_RE = re.compile(r"\.fence-(\d+)$")


@dataclass(frozen=True)
class Lease:
    """One runner's claim on one shard (immutable snapshot)."""

    shard: int
    owner: str
    fence: int
    state: str
    heartbeat_unix: float
    ttl_s: float
    stolen: bool = False  # acquired by takeover, not first claim

    def payload(self) -> Dict[str, Any]:
        """The JSON payload written to the lease file."""
        return {
            "shard": self.shard,
            "owner": self.owner,
            "fence": self.fence,
            "state": self.state,
            "heartbeat_unix": self.heartbeat_unix,
            "ttl_s": self.ttl_s,
        }


class LeaseManager:
    """Claim, renew, release and steal shard leases under one directory.

    Parameters
    ----------
    shard_dir:
        The shared shard directory (see
        :mod:`repro.distributed.sharding` for the layout).
    owner:
        This runner's id; stamped on every lease and journal record it
        writes.
    ttl_s:
        Heartbeat time-to-live this runner promises on its leases.
    clock:
        Wall-clock source (``time.time``); injectable so contention
        tests can expire leases without sleeping.  Wall clock — not
        monotonic — because heartbeats must be comparable *across
        processes and hosts*; the TTL must dwarf inter-host clock skew.
    """

    def __init__(
        self,
        shard_dir: str,
        owner: str,
        ttl_s: float = DEFAULT_LEASE_TTL_S,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if ttl_s <= 0:
            raise ValidationError("lease ttl_s must be positive")
        if not owner:
            raise ValidationError("a runner needs a non-empty owner id")
        self.shard_dir = shard_dir
        self.owner = owner
        self.ttl_s = float(ttl_s)
        self.clock = clock
        os.makedirs(lease_dir(shard_dir), exist_ok=True)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def read(self, shard: int) -> Optional[Dict[str, Any]]:
        """The raw lease payload on disk, or ``None`` when absent or
        unreadable (damage never blocks progress: the fence markers
        keep token issuance monotonic regardless)."""
        try:
            with open(lease_path(self.shard_dir, shard),
                      encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def observe(self, shard: int) -> Dict[str, Any]:
        """The shard's derived lease state, for runners deciding what
        to claim and for ``repro merge-journals`` integrity reports."""
        path = lease_path(self.shard_dir, shard)
        exists = os.path.exists(path)
        payload = self.read(shard)
        if payload is None:
            state = DAMAGED if exists else FREE
            return {"shard": shard, "state": state,
                    "fence": self.highest_fence(shard)}
        out = dict(payload)
        out["heartbeat_age_s"] = self.clock() - float(
            payload.get("heartbeat_unix", 0.0)
        )
        if payload.get("state") != RELEASED and self._expired(payload):
            out["state"] = EXPIRED
        return out

    def _expired(self, payload: Dict[str, Any]) -> bool:
        heartbeat = float(payload.get("heartbeat_unix", 0.0))
        ttl = float(payload.get("ttl_s", self.ttl_s))
        return self.clock() - heartbeat > ttl

    def highest_fence(self, shard: int) -> int:
        """The highest fencing token ever issued for ``shard`` (0 when
        none) — from the append-only fence markers, which survive any
        damage to the lease file itself."""
        prefix = os.path.basename(fence_marker_path(self.shard_dir,
                                                    shard, 1))
        stem = prefix.rsplit("fence-", 1)[0]
        highest = 0
        try:
            names = os.listdir(lease_dir(self.shard_dir))
        except OSError:
            return 0
        for name in names:
            if not name.startswith(stem):
                continue
            match = _FENCE_RE.search(name)
            if match:
                highest = max(highest, int(match.group(1)))
        return highest

    # ------------------------------------------------------------------
    # The state machine
    # ------------------------------------------------------------------
    def claim(self, shard: int) -> Optional[Lease]:
        """Try to claim ``shard``; ``None`` when it is validly held or
        this runner lost the claim race.

        A shard is claimable when it has no lease, a released lease, a
        damaged lease file, or an *expired* lease (work-stealing).  The
        winner is decided by ``O_CREAT | O_EXCL`` on the next fence
        marker — exactly one claimant can create it, so two racing
        processes always yield exactly one owner; the loser should back
        off (the runner uses the crc32-jitter
        :class:`~repro.parallel.retry.RetryPolicy` schedule) and
        re-inspect.

        A fence marker *above* the lease file's token means another
        claimant won the CAS and is mid-way between issuing its token
        and writing its lease file — the shard is treated as held until
        that marker goes stale (the claimant died in the window), so a
        racer cannot leapfrog a winner it simply out-paced to the read.
        """
        payload = self.read(shard)
        disk_fence = int(payload.get("fence", 0)) if payload else 0
        highest = self.highest_fence(shard)
        # A present-but-unreadable lease file is bit rot, not a claim
        # in flight — _write goes through an atomic rename, so a crash
        # can never tear it — and damage must not block recovery.
        damaged = payload is None and os.path.exists(
            lease_path(self.shard_dir, shard)
        )
        if (
            not damaged
            and highest > disk_fence
            and not self._marker_stale(shard, highest)
        ):
            return None  # a claim at token `highest` is in flight
        held = (
            payload is not None
            and payload.get("state") in (CLAIMED, RUNNING)
            and not self._expired(payload)
        )
        if held:
            return None
        stolen = payload is not None and payload.get("state") != RELEASED
        fence = max(highest, disk_fence) + 1
        if not self._issue_fence(shard, fence):
            return None  # lost the race for this token
        lease = Lease(
            shard=shard,
            owner=self.owner,
            fence=fence,
            state=CLAIMED,
            heartbeat_unix=self.clock(),
            ttl_s=self.ttl_s,
            stolen=stolen,
        )
        self._write(lease)
        DISTRIBUTED.lease_claims += 1
        if stolen:
            DISTRIBUTED.lease_steals += 1
        return lease

    def start(self, lease: Lease) -> Lease:
        """CLAIMED → RUNNING (verified, heartbeat refreshed)."""
        return self._advance(lease, RUNNING)

    def renew(self, lease: Lease) -> Lease:
        """Refresh the heartbeat; raise
        :class:`~repro.exceptions.LeaseLostError` when the lease was
        stolen out from under this owner."""
        renewed = self._advance(lease, lease.state)
        DISTRIBUTED.lease_renewals += 1
        return renewed

    def release(self, lease: Lease) -> Lease:
        """RUNNING/CLAIMED → RELEASED (the clean-finish terminal state)."""
        released = self._advance(lease, RELEASED)
        DISTRIBUTED.lease_releases += 1
        return released

    def _advance(self, lease: Lease, state: str) -> Lease:
        self._verify_owned(lease)
        updated = replace(
            lease, state=state, heartbeat_unix=self.clock()
        )
        self._write(updated)
        return updated

    def _verify_owned(self, lease: Lease) -> None:
        payload = self.read(lease.shard)
        if payload is None:
            # Damaged/missing lease file: the markers are authoritative.
            # A marker above ours means a thief already claimed past us.
            if self.highest_fence(lease.shard) > lease.fence:
                DISTRIBUTED.lease_losses += 1
                raise LeaseLostError(
                    shard=lease.shard, owner=lease.owner,
                    fence=lease.fence, holder=None,
                    holder_fence=self.highest_fence(lease.shard),
                )
            return
        disk_fence = int(payload.get("fence", 0))
        if disk_fence > lease.fence:
            DISTRIBUTED.lease_losses += 1
            raise LeaseLostError(
                shard=lease.shard, owner=lease.owner, fence=lease.fence,
                holder=payload.get("owner"), holder_fence=disk_fence,
            )
        if disk_fence == lease.fence and payload.get("owner") != lease.owner:
            raise LeaseError(
                f"fencing token {lease.fence} on shard {lease.shard} "
                f"carries owner {payload.get('owner')!r}, not "
                f"{lease.owner!r} — token issuance was not unique"
            )
        # disk_fence < ours: a slower lower-fenced writer raced the
        # file back after our claim; we are the highest-token holder
        # and simply rewrite (self-heal).  The racer is fenced off at
        # its own next renewal.

    def _marker_stale(self, shard: int, fence: int) -> bool:
        """Whether the fence marker for ``fence`` is older than the
        TTL — i.e. its claimant died between the CAS and the lease
        write.  Deliberately compares the marker's *filesystem* mtime
        against the real wall clock (not the injectable ``clock``): the
        in-flight window is microseconds of real time, and tests that
        fast-forward a fake clock must not widen it."""
        try:
            age = time.time() - os.stat(
                fence_marker_path(self.shard_dir, shard, fence)
            ).st_mtime
        except OSError:
            return True  # marker gone: nothing is in flight
        return age > self.ttl_s

    # ------------------------------------------------------------------
    # Disk primitives
    # ------------------------------------------------------------------
    def _issue_fence(self, shard: int, fence: int) -> bool:
        """Atomically issue fencing token ``fence`` (the CAS)."""
        path = fence_marker_path(self.shard_dir, shard, fence)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        try:
            os.write(fd, f"{self.owner}\n".encode("utf-8"))
            os.fsync(fd)
        finally:
            os.close(fd)
        _fsync_dir(lease_dir(self.shard_dir))
        return True

    def _write(self, lease: Lease) -> None:
        """Replace the lease file atomically (tmp + fsync + rename +
        directory fsync); the tmp name is per writer, so two racing
        writers never share one."""
        path = lease_path(self.shard_dir, lease.shard)
        _replace_file(
            path,
            [json.dumps(lease.payload(), sort_keys=True), "\n"],
            tmp_path=f"{path}.{lease.owner}.{lease.fence}.tmp",
        )
