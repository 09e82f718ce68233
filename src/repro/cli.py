"""Command-line interface: ``python -m repro <command> ...``.

A thin operational layer over the library for quick experiments on
JSON-serialized structures (see :mod:`repro.structures.io`):

``hom A.json B.json [--deadline S] [--budget N]``
    Find a homomorphism (exit 0 with the mapping, exit 1 when none).
    With a deadline/budget, runs governed and exits 2 with an
    ``unknown: ...`` line when the limit trips first.
``core A.json``
    Compute the core and report sizes.
``treewidth A.json [--deadline S] [--fallback]``
    Exact treewidth of the structure's Gaifman graph; ``--fallback``
    degrades to the greedy upper bound instead of failing when the
    deadline or the exact-solver size limit trips.
``rewrite "<FO sentence>" --relations E:2 [--max-size N]``
    Run the preservation pipeline: minimal models → UCQ.
``datalog program.dl A.json --query P``
    Evaluate a Datalog program bottom-up; print the answer relation.
``check A.json B.json --pebbles k``
    Decide the existential k-pebble game on (A, B).
``chandra-merlin A.json B.json``
    Report the three equivalent statements of Theorem 2.1.
``stats [--pair A.json B.json --repeat N] [--no-cache] [--no-kernel]
[--reset] [--journal PATH]``
    Dump the hom-engine's solver/cache counters as JSON (optionally
    after exercising a homomorphism query ``N`` times first), including
    the ``incremental`` section (edit fingerprints, memo entries kept
    across edits, warm starts, DRed maintenance; edits evict nothing,
    so ``incr_evictions`` and the memo's ``invalidations`` read 0), the
    ``distributed`` section (lease claims/renewals/steals), and the
    ``serve`` section (requests accepted/rejected/shed, breaker
    trips/probes, drains, and p50/p99 end-to-end latency);
    ``--reset`` zeroes every counter — solver, memo cache,
    compiled-target cache, governor, incremental, distributed — before
    the run; with ``--journal`` also reports a sweep journal's
    integrity stats (records, legacy lines, corrupt lines, torn tail)
    without touching the file: a torn tail is reported, not truncated.
``serve [--host H --port P] [--queue-limit N] [--health-check]``
    Run the hardened hom-decision server (:mod:`repro.serve`): hom /
    containment / equivalence / core / treewidth / warm-session edits
    as JSON lines over TCP, with deadline-aware admission control,
    bounded-queue load shedding, a circuit breaker to the reference
    solver, and graceful drain on SIGTERM/SIGINT (queued work is
    answered ``overloaded``, in-flight work is cancelled to honest
    UNKNOWN verdicts).  ``--health-check`` probes a running server
    instead (exit 0 when ready).
``sweep {hom,hom-batch,cores,treewidth} [--workers N] [--deadline S] ...``
    Run a registered instance sweep through the supervised parallel
    governed executor (:mod:`repro.parallel`): per-instance
    deadlines/budgets, retries with backoff (``--retries``), hard
    wall-clock kills (``--grace``), poison quarantine, journaled
    kill-resume (``--journal``) with a journal-integrity verdict in
    the report, deterministic JSON output.  With ``--shard-dir D
    --shards K`` the sweep instead joins a *sharded* run as one of N
    independent runners (:mod:`repro.distributed`): shards are claimed
    under heartbeat leases with fencing tokens, expired leases are
    work-stolen, and each shard journals to its own fenced file under
    ``D`` — exit 0 when every shard finished, 1 otherwise.  SIGTERM
    and Ctrl-C exit 130 after an orderly teardown: the journal is
    flushed and compacted (plain sweeps) or the held shard lease is
    released immediately (sharded sweeps), so the next run resumes
    without repairing torn state or waiting out a lease TTL.
``merge-journals [J.jsonl ...|--shard-dir D --shards K] [--sweep NAME]``
    Validate and merge the shard journals of a sharded sweep: per-shard
    checksum/torn-tail integrity, duplicate keys resolved by fencing
    token (last valid writer wins), missing/unexpected keys against the
    ``--sweep`` grid, optional compaction to one combined journal
    (``--output``) a single-host run would resume from.  Exit 0 clean,
    2 with integrity findings.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, List, Optional

from .structures.io import load_structure

if TYPE_CHECKING:
    from .structures import Vocabulary

# Each subcommand imports the layers it runs inside its handler, so a
# ``repro hom`` or ``repro serve`` start never compiles the FO logic,
# Datalog, pebble-game or preservation-theorem modules.


def _parse_relations(spec: str) -> Vocabulary:
    from .structures import Vocabulary

    relations = {}
    for chunk in spec.split(","):
        name, _, arity = chunk.partition(":")
        if not arity:
            raise SystemExit(f"bad relation spec {chunk!r}; use Name:arity")
        relations[name.strip()] = int(arity)
    return Vocabulary(relations)


def _cmd_hom(args: argparse.Namespace) -> int:
    from .homomorphism import find_homomorphism

    a = load_structure(args.source)
    b = load_structure(args.target)
    if args.deadline is not None or args.budget is not None:
        from .engine import get_engine
        from .resources import governed

        with governed(deadline=args.deadline, budget=args.budget):
            verdict = get_engine().decide_homomorphism(a, b)
        if verdict.is_unknown:
            print(f"unknown: {verdict.reason}")
            return 2
        if verdict.is_false:
            print("no homomorphism")
            return 1
        print(json.dumps(
            {repr(k): repr(v) for k, v in verdict.witness.items()}, indent=2
        ))
        return 0
    hom = find_homomorphism(a, b)
    if hom is None:
        print("no homomorphism")
        return 1
    print(json.dumps({repr(k): repr(v) for k, v in hom.items()}, indent=2))
    return 0


def _cmd_core(args: argparse.Namespace) -> int:
    from .homomorphism import compute_core
    from .structures import structure_to_json

    s = load_structure(args.structure)
    core = compute_core(s)
    print(f"structure: {s.size()} elements, {s.num_facts()} facts")
    print(f"core:      {core.size()} elements, {core.num_facts()} facts")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(structure_to_json(core))
        print(f"core written to {args.output}")
    return 0


def _cmd_treewidth(args: argparse.Namespace) -> int:
    from .graphtheory import treewidth_exact
    from .resources import governed
    from .structures import gaifman_graph

    s = load_structure(args.structure)
    graph = gaifman_graph(s)
    if args.fallback:
        from .graphtheory import treewidth_with_fallback

        with governed(deadline=args.deadline):
            result = treewidth_with_fallback(graph, limit=args.limit)
        if result.exact:
            print(f"treewidth: {result.width}")
        else:
            print(f"treewidth: <= {result.width} "
                  f"({result.method}; {result.reason})")
        return 0
    with governed(deadline=args.deadline):
        width = treewidth_exact(graph, limit=args.limit)
    print(f"treewidth: {width}")
    return 0


def _cmd_rewrite(args: argparse.Namespace) -> int:
    from .core import rewrite_to_ucq
    from .logic import parse_formula
    from .structures import random_structure

    vocabulary = _parse_relations(args.relations)
    query = parse_formula(args.sentence, vocabulary)
    sample = [
        random_structure(vocabulary, 4, 0.3, seed) for seed in range(8)
    ]
    result = rewrite_to_ucq(
        query, vocabulary, max_size=args.max_size,
        verification_sample=sample,
    )
    print(result.summary())
    print(result.ucq)
    return 0


def _cmd_datalog(args: argparse.Namespace) -> int:
    from .datalog import evaluate_semi_naive, parse_program

    structure = load_structure(args.structure)
    with open(args.program, "r", encoding="utf-8") as handle:
        text = handle.read()
    program = parse_program(text, structure.vocabulary.without_constants())
    result = evaluate_semi_naive(program, structure)
    predicate = args.query or program.idb_predicates[0]
    tuples = sorted(result.relations[predicate], key=repr)
    print(f"{predicate}: {len(tuples)} tuples "
          f"(fixpoint after {result.rounds} rounds)")
    for tup in tuples:
        print(f"  {tup}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .pebble import duplicator_wins

    a = load_structure(args.source)
    b = load_structure(args.target)
    wins = duplicator_wins(a, b, args.pebbles)
    print(f"duplicator wins the existential {args.pebbles}-pebble game: "
          f"{wins}")
    return 0 if wins else 1


def _cmd_chandra_merlin(args: argparse.Namespace) -> int:
    from .cq import canonical_query, chandra_merlin_check

    a = load_structure(args.source)
    b = load_structure(args.target)
    result = chandra_merlin_check(a, b)
    print(f"hom A -> B exists:        {result['hom']}")
    print(f"B |= phi_A:               {result['models']}")
    print(f"phi_B logically => phi_A: {result['implies']}")
    print(f"phi_A = {canonical_query(a)}")
    return 0


def _install_interrupt_handlers() -> None:
    """Route SIGTERM through the KeyboardInterrupt path.

    ``repro sweep`` and ``repro serve`` are the long-running commands;
    an orchestrator's SIGTERM must trigger the same orderly teardown
    (journal flush/compaction, shard-lease release, graceful drain) as
    a user's Ctrl-C, not an instant death that strands leases and
    leaves torn journal tails for the next run to repair.  Only called
    from the main thread; no-op where signals are unavailable.
    """
    import signal as _signal
    import threading as _threading

    if _threading.current_thread() is not _threading.main_thread():
        return

    def _to_interrupt(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt(f"signal {signum}")

    try:
        _signal.signal(_signal.SIGTERM, _to_interrupt)
        _signal.signal(_signal.SIGINT, _to_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


def _cmd_sweep(args: argparse.Namespace) -> int:
    import functools

    from .parallel import RetryPolicy, get_sweep, run_sweep
    from .parallel.sweeps import filter_instances
    from .resources import SweepJournal

    from .exceptions import UnknownInstanceError

    _install_interrupt_handlers()
    sweep = get_sweep(args.name)
    task = sweep.task
    if args.name == "treewidth":
        task = functools.partial(task, limit=args.limit)
    instances = sweep.instances()
    if args.only:
        try:
            instances = filter_instances(instances, args.only)
        except UnknownInstanceError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
    retry_policy = (
        RetryPolicy(max_attempts=args.retries)
        if args.retries is not None else None
    )
    if args.shard_dir:
        import os as _os
        import socket as _socket

        from .distributed import run_sharded_sweep

        if args.journal:
            print("error: --journal conflicts with --shard-dir "
                  "(each shard journals to its own fenced file)",
                  file=sys.stderr)
            return 2
        runner_id = args.runner_id or (
            f"{_socket.gethostname()}-{_os.getpid()}"
        )
        try:
            sharded = run_sharded_sweep(
                task,
                instances,
                shard_dir=args.shard_dir,
                shards=args.shards,
                runner_id=runner_id,
                workers=args.workers,
                deadline_s=args.deadline,
                budget=args.budget,
                chunksize=args.chunksize,
                mode=f"sweep-{args.name}",
                retry_policy=retry_policy,
                grace_factor=args.grace,
                hard_timeout_s=args.hard_timeout,
                lease_ttl_s=args.lease_ttl,
                heartbeat_interval_s=args.heartbeat,
                steal=not args.no_steal,
                max_wait_s=args.max_wait,
            )
        except KeyboardInterrupt:
            # The in-flight shard's lease was released by the runner's
            # own interrupt handling; its journal keeps every record
            # already written, so a resume (or another runner) picks
            # the shard up cleanly instead of waiting out the TTL.
            print("interrupted: shard lease released; journals are "
                  "resumable", file=sys.stderr)
            return 130
        print(json.dumps(sharded.to_dict(), indent=2))
        return 0 if sharded.complete else 1
    journal = SweepJournal(args.journal) if args.journal else None
    try:
        outcome = run_sweep(
            task,
            instances,
            workers=args.workers,
            deadline_s=args.deadline,
            budget=args.budget,
            journal=journal,
            fresh=args.fresh,
            chunksize=args.chunksize,
            mode=f"sweep-{args.name}",
            retry_policy=retry_policy,
            grace_factor=args.grace,
            hard_timeout_s=args.hard_timeout,
        )
    except KeyboardInterrupt:
        # Flush + compact so the next run resumes from a journal with
        # no torn tail and no duplicate keys to re-deduplicate.
        if journal is not None:
            journal.compact()
            print(f"interrupted: journal {args.journal} compacted; "
                  "rerun the same command to resume", file=sys.stderr)
        else:
            print("interrupted (no journal; progress discarded)",
                  file=sys.stderr)
        return 130
    print(json.dumps(outcome.to_dict(), indent=2))
    return 0 if outcome.failed == 0 else 1


def _cmd_merge_journals(args: argparse.Namespace) -> int:
    from .distributed import (
        merge_journals,
        normalize_results,
        shard_journal_paths,
        write_combined_journal,
    )
    from .exceptions import UnknownInstanceError
    from .parallel import get_sweep
    from .parallel.sweeps import filter_instances

    paths = list(args.journals)
    if args.shard_dir:
        if not args.shards:
            print("error: --shard-dir needs --shards K to enumerate "
                  "the journals", file=sys.stderr)
            return 2
        paths = shard_journal_paths(args.shard_dir, args.shards) + paths
    if not paths:
        print("error: nothing to merge; pass journal paths or "
              "--shard-dir D --shards K", file=sys.stderr)
        return 2
    expected = None
    if args.sweep:
        instances = get_sweep(args.sweep).instances()
        if args.only:
            try:
                instances = filter_instances(instances, args.only)
            except UnknownInstanceError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
        expected = [key for key, _ in instances]
    report = merge_journals(paths, expected_keys=expected)
    if args.output:
        write_combined_journal(args.output, report)
    payload = report.to_dict()
    if args.normalize:
        payload["results"] = normalize_results(report.results)
    print(json.dumps(payload, indent=2))
    return 0 if report.clean else 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import health_check, run_server

    if args.health_check:
        ready, detail = health_check(
            args.host, args.port, timeout_s=args.probe_timeout
        )
        print(f"{'ready' if ready else 'not ready'}: {detail}")
        return 0 if ready else 1
    _install_interrupt_handlers()
    try:
        return run_server(
            args.host,
            args.port,
            queue_limit=args.queue_limit,
            idle_timeout_s=args.idle_timeout,
            drain_grace_s=args.drain_grace,
        )
    except KeyboardInterrupt:
        # Signal arrived outside the event loop (e.g. during startup);
        # nothing is in flight yet, so plain exit is the drain.
        return 130


def _cmd_stats(args: argparse.Namespace) -> int:
    from .engine import HomEngine, get_engine

    if args.no_cache or args.no_kernel:
        engine = HomEngine(
            cache_enabled=not args.no_cache,
            use_kernel=not args.no_kernel,
        )
    else:
        engine = get_engine()
    if args.reset:
        engine.reset_stats()
    if args.pair:
        a = load_structure(args.pair[0])
        b = load_structure(args.pair[1])
        for _ in range(args.repeat):
            engine.exists_homomorphism(a, b)
    snapshot = engine.snapshot()
    if args.journal:
        from .resources.checkpointing import _ReadOnlyJournal

        snapshot["journal"] = _ReadOnlyJournal(args.journal).journal_stats()
    print(json.dumps(snapshot, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Homomorphism preservation toolkit "
                    "(Atserias-Dawar-Kolaitis, PODS 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="find a homomorphism between structures")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock limit in seconds (governed mode)")
    p.add_argument("--budget", type=int, default=None,
                   help="search-step budget (governed mode)")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("core", help="compute the core of a structure")
    p.add_argument("structure")
    p.add_argument("--output", help="write the core as JSON")
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("treewidth", help="exact treewidth of a structure")
    p.add_argument("structure")
    p.add_argument("--limit", type=int, default=40)
    p.add_argument("--deadline", type=float, default=None,
                   help="wall-clock limit in seconds for the exact solver")
    p.add_argument("--fallback", action="store_true",
                   help="degrade to the greedy upper bound on a trip "
                        "instead of failing")
    p.set_defaults(func=_cmd_treewidth)

    p = sub.add_parser("rewrite",
                       help="FO -> UCQ preservation rewriting")
    p.add_argument("sentence")
    p.add_argument("--relations", required=True,
                   help="vocabulary, e.g. 'E:2,P:1'")
    p.add_argument("--max-size", type=int, default=3)
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("datalog", help="evaluate a Datalog program")
    p.add_argument("program")
    p.add_argument("structure")
    p.add_argument("--query", help="IDB predicate (default: first)")
    p.set_defaults(func=_cmd_datalog)

    p = sub.add_parser("check",
                       help="existential k-pebble game on two structures")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--pebbles", type=int, default=2)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("chandra-merlin",
                       help="the three statements of Theorem 2.1")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(func=_cmd_chandra_merlin)

    p = sub.add_parser("sweep",
                       help="run a registered instance sweep "
                            "(parallel, governed, resumable)")
    from .parallel.sweeps import SWEEPS as _SWEEPS

    p.add_argument("name", choices=tuple(sorted(_SWEEPS)),
                   help="which registered sweep to run")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = serial in-process)")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-instance wall-clock deadline in seconds")
    p.add_argument("--budget", type=int, default=None,
                   help="per-instance search-step budget")
    p.add_argument("--journal", default=None,
                   help="JSONL journal path for kill-resume")
    p.add_argument("--fresh", action="store_true",
                   help="discard the journal and start over")
    p.add_argument("--chunksize", type=int, default=1,
                   help="instances per worker task")
    p.add_argument("--limit", type=int, default=40,
                   help="treewidth sweep: exact-solver vertex limit")
    p.add_argument("--retries", type=int, default=None,
                   help="attempts per instance before quarantine "
                        "(default: 3)")
    p.add_argument("--grace", type=float, default=4.0,
                   help="hard-kill a worker after deadline*GRACE "
                        "wall-clock seconds (non-cooperative hangs)")
    p.add_argument("--hard-timeout", type=float, default=None,
                   help="explicit per-instance hard wall-clock cap in "
                        "seconds (overrides --grace)")
    p.add_argument("--only", default=None,
                   help="run only instances whose key contains this "
                        "substring")
    p.add_argument("--shard-dir", default=None,
                   help="join a sharded sweep over this shared "
                        "directory (leases + per-shard journals)")
    p.add_argument("--shards", type=int, default=4,
                   help="shard count K of the sharded sweep "
                        "(must match across runners)")
    p.add_argument("--runner-id", default=None,
                   help="this runner's id (default: hostname-pid)")
    p.add_argument("--lease-ttl", type=float, default=30.0,
                   help="seconds a shard lease survives without a "
                        "heartbeat before it can be stolen")
    p.add_argument("--heartbeat", type=float, default=None,
                   help="heartbeat renewal interval in seconds "
                        "(default: lease TTL / 3)")
    p.add_argument("--no-steal", action="store_true",
                   help="never take over expired leases (claim only "
                        "free/released shards)")
    p.add_argument("--max-wait", type=float, default=600.0,
                   help="seconds to keep polling for steal "
                        "opportunities after the last progress")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("merge-journals",
                       help="validate and merge sharded sweep journals "
                            "(exit 0 clean, 2 with findings)")
    p.add_argument("journals", nargs="*",
                   help="shard journal paths (alternative to "
                        "--shard-dir)")
    p.add_argument("--shard-dir", default=None,
                   help="merge the journals of this sharded sweep "
                        "directory")
    p.add_argument("--shards", type=int, default=None,
                   help="shard count K of the --shard-dir layout")
    p.add_argument("--sweep", choices=tuple(sorted(_SWEEPS)),
                   default=None,
                   help="check coverage against this registered "
                        "sweep's instance grid")
    p.add_argument("--only", default=None,
                   help="with --sweep: restrict the expected grid to "
                        "keys containing this substring")
    p.add_argument("--output", default=None,
                   help="also compact the merged winners into this "
                        "combined journal file")
    p.add_argument("--normalize", action="store_true",
                   help="strip volatile fields (elapsed_s, "
                        "nodes/backtracks) from the reported results "
                        "for run-to-run comparison")
    p.set_defaults(func=_cmd_merge_journals)

    p = sub.add_parser(
        "serve",
        help="run the hom-decision server (JSON lines over TCP)")
    p.add_argument("--host", default="127.0.0.1",
                   help="listen address (default: loopback)")
    p.add_argument("--port", type=int, default=7464,
                   help="listen port; 0 picks a free one (announced "
                        "on the ready line)")
    p.add_argument("--queue-limit", type=int, default=64,
                   help="bounded request queue: beyond this, the "
                        "oldest-deadline ticket is shed")
    p.add_argument("--idle-timeout", type=float, default=30.0,
                   help="close a connection after this many seconds "
                        "without a complete frame")
    p.add_argument("--drain-grace", type=float, default=2.0,
                   help="seconds a drain waits for the in-flight "
                        "request before cancelling it to UNKNOWN")
    p.add_argument("--health-check", action="store_true",
                   help="probe a running server's readiness instead "
                        "of serving (exit 0 ready, 1 otherwise)")
    p.add_argument("--probe-timeout", type=float, default=5.0,
                   help="--health-check connection/response timeout")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("stats",
                       help="hom-engine solver/cache counters as JSON")
    p.add_argument("--pair", nargs=2, metavar=("SOURCE", "TARGET"),
                   help="run a homomorphism query before dumping stats")
    p.add_argument("--repeat", type=int, default=1,
                   help="how many times to run the --pair query")
    p.add_argument("--no-cache", action="store_true",
                   help="use a fresh engine with memoization disabled "
                        "(batched queries included: every query solves)")
    p.add_argument("--no-kernel", action="store_true",
                   help="use a fresh engine on the reference solver "
                        "(compiled bitset kernel disabled)")
    p.add_argument("--reset", action="store_true",
                   help="zero all engine counters (including the "
                        "compiled-target cache's hit/miss counters and "
                        "the governor) before running/reporting")
    p.add_argument("--journal", default=None,
                   help="also report this sweep journal's integrity "
                        "stats (legacy/corrupt line counts, torn tail); "
                        "read-only")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the exit code.

    Leaves the process's SIGTERM/SIGINT handlers as it found them:
    ``sweep`` and ``serve`` route both signals to KeyboardInterrupt
    while they run (:func:`_install_interrupt_handlers`), and a host
    that calls ``main`` in-process keeps its own handlers afterwards,
    as does every worker it forks later.
    """
    import signal as _signal

    args = build_parser().parse_args(argv)
    handlers = [
        (signum, _signal.getsignal(signum))
        for signum in (_signal.SIGTERM, _signal.SIGINT)
    ]
    try:
        return args.func(args)
    finally:
        for signum, handler in handlers:
            if _signal.getsignal(signum) is not handler:
                _signal.signal(signum, handler)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
