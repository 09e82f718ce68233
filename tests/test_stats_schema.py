"""The stats key set is pinned.

``HomEngine().snapshot()`` is what ``python -m repro stats`` prints and
what the serve ``stats`` op returns as its ``engine`` entry, so tools
read its keys.  A counter that stops counting keeps its key (and reads
0); this test fails on any key added, removed or renamed at any depth.
"""

import json

import pytest

from repro.cli import main
from repro.engine import HomEngine
from repro.serve import ServeClient, ServerThread
from repro.serve.service import DecisionService

#: Section -> its keys; ``None`` marks a scalar entry.
SCHEMA = {
    "cache_enabled": None,
    "kernel_enabled": None,
    "dp_enabled": None,
    "solver": {
        "ac3_prunings", "backtracks", "batch_calls", "batch_dedup_hits",
        "batch_queries", "cache_hits", "cache_misses", "calls",
        "core_iterations", "dp_bags", "dp_entries", "dp_solves",
        "hit_rate", "kernel_compilations", "kernel_compile_hits",
        "kernel_solves", "nodes", "solve_time_s", "solves",
    },
    "cache": {
        "entries", "evictions", "hit_rate", "hits", "invalidations",
        "keys", "max_entries", "maxsize", "misses",
    },
    "compiled_targets": {"capacity", "entries", "hits", "misses"},
    "governor": {
        "budget_trips", "cancellations", "checkpoints", "deadline_hits",
        "fallbacks", "hard_kills", "pool_rebuilds", "quarantines",
        "retries", "unknown_verdicts",
    },
    "incremental": {
        "dred_applies", "dred_full_recomputes", "dred_overdeleted",
        "dred_rederived", "fingerprint_delta_hits",
        "fingerprint_dirty_elements", "fingerprint_full_recomputes",
        "incr_evictions", "incr_kept", "warm_fallbacks", "warm_hits",
    },
    "distributed": {
        "journal_compactions", "journal_corrupt_lines", "journal_records",
        "journal_recoveries", "lease_claims", "lease_losses",
        "lease_releases", "lease_renewals", "lease_steals",
    },
    "serve": {
        "accepted", "breaker_fallback_solves", "breaker_probes",
        "breaker_trips", "client_gone", "completed", "connections",
        "drained_unknowns", "drains", "error_responses", "frames",
        "idle_closes", "latency_p50_ms", "latency_p99_ms",
        "latency_samples", "malformed_frames", "overloaded",
        "oversized_frames", "rejected", "requests", "shed",
        "unknown_results",
    },
}


def schema(snapshot):
    """``snapshot``'s nested key set, shaped like :data:`SCHEMA`."""
    return {
        name: set(value) if isinstance(value, dict) else None
        for name, value in snapshot.items()
    }


@pytest.mark.parametrize(
    "options",
    [{}, {"cache_enabled": False}, {"use_kernel": False},
     {"use_dp": False}],
    ids=["default", "no-cache", "no-kernel", "no-dp"],
)
def test_engine_snapshot_keys(options):
    assert schema(HomEngine(**options).snapshot()) == SCHEMA


@pytest.mark.parametrize(
    "flags", [[], ["--no-cache"], ["--no-kernel"]],
    ids=["default", "no-cache", "no-kernel"],
)
def test_repro_stats_keys(flags, capsys):
    assert main(["stats", *flags]) == 0
    assert schema(json.loads(capsys.readouterr().out)) == SCHEMA


def test_serve_stats_op_engine_keys():
    server = ServerThread(service=DecisionService(engine=HomEngine()),
                          idle_timeout_s=10.0)
    host, port = server.start()
    try:
        with ServeClient(host, port) as client:
            engine = client.stats()["engine"]
    finally:
        server.stop()
    assert schema(engine) == SCHEMA
