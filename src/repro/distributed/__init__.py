"""The sharded sweep runtime: leases, work-stealing, fenced journals.

This package turns the single-host fault-tolerant sweep executor
(:mod:`repro.parallel`) into a multi-runner runtime with no server and
no locks — plain files under one shared directory:

* :mod:`~repro.distributed.sharding` — the deterministic
  ``crc32(key) % K`` partition and the on-disk layout;
* :mod:`~repro.distributed.leases` — the shard-lease protocol: atomic
  claims via ``O_CREAT | O_EXCL`` fence markers, heartbeats, expiry,
  stealing, and strictly-increasing fencing tokens;
* :mod:`~repro.distributed.journal` — the per-shard journal stamping
  every record with its writer's fencing token;
* :mod:`~repro.distributed.runner` — the runner loop gluing the above
  to :func:`repro.parallel.run_sweep` (``repro sweep --shard-dir``);
* :mod:`~repro.distributed.merge` — ``repro merge-journals``:
  validate, fence-resolve and compact K shard journals into one
  combined report equivalent to a single-host run.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "journal": ("FencedShardJournal",),
    "leases": (
        "CLAIMED", "DEFAULT_LEASE_TTL_S", "EXPIRED", "FREE", "RELEASED",
        "RUNNING", "Lease", "LeaseManager",
    ),
    "merge": (
        "MergeReport", "merge_journals", "normalize_results", "read_done_keys",
        "scan_shard_journal", "write_combined_journal",
    ),
    "runner": (
        "DEFAULT_SHARD_HARD_TIMEOUT_S", "LeaseHeartbeat",
        "ShardedSweepOutcome", "run_sharded_sweep",
    ),
    "sharding": (
        "assign_shard", "journal_path", "lease_path", "partition",
        "shard_journal_paths",
    ),
}

__getattr__, __dir__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = [
    "FencedShardJournal",
    "CLAIMED",
    "DEFAULT_LEASE_TTL_S",
    "EXPIRED",
    "FREE",
    "RELEASED",
    "RUNNING",
    "Lease",
    "LeaseManager",
    "MergeReport",
    "merge_journals",
    "normalize_results",
    "read_done_keys",
    "scan_shard_journal",
    "write_combined_journal",
    "DEFAULT_SHARD_HARD_TIMEOUT_S",
    "LeaseHeartbeat",
    "ShardedSweepOutcome",
    "run_sharded_sweep",
    "assign_shard",
    "journal_path",
    "lease_path",
    "partition",
    "shard_journal_paths",
]
