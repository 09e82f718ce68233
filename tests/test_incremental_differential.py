"""The incremental-differential tier: edit streams vs the shared oracle.

Over 500 re-decisions across seeded edit streams, every warm-session
verdict and witness must agree with :mod:`tests.oracle` on the current
(edited) structures: brute force while the pair is small, the reference
solver once a stream outgrows the cap.  DRed fixpoints must match a
semi-naive evaluation tuple for tuple.  Streams interleave chaos
``evict`` faults, and governed streams inject faults where UNKNOWN is
allowed but definite verdicts must still match.
"""

import random

from repro.datalog.evaluation import evaluate_semi_naive
from repro.datalog.program import parse_program
from repro.engine.engine import HomEngine
from repro.incremental import (
    Delta,
    IncrementalCoreSession,
    IncrementalFixpoint,
    IncrementalHomSession,
)
from repro.resources import governed
from repro.structures import random_structure

from .chaos import FaultInjector
from .oracle import GRAPH, Case, agrees, core_size, structure_pool

HOM_STREAMS = 30
HOM_STEPS = 12
GOVERNED_STREAMS = 10
GOVERNED_STEPS = 8
CORE_STREAMS = 10
CORE_STEPS = 6
DATALOG_STREAMS = 10
DATALOG_STEPS = 12

# 30*12 + 10*8 + 10*6 + 10*12 = 620 re-decisions >= the 500-case floor.
assert (
    HOM_STREAMS * HOM_STEPS
    + GOVERNED_STREAMS * GOVERNED_STEPS
    + CORE_STREAMS * CORE_STEPS
    + DATALOG_STREAMS * DATALOG_STEPS
    >= 500
)


def random_delta(rng, structure):
    """A small random valid edit of ``structure`` (never empty unless
    the structure admits nothing)."""
    universe = sorted(structure.universe)
    facts = sorted(structure.facts())
    roll = rng.random()
    if roll < 0.10:
        # Grow: a fresh element wired to an existing one.
        new = max((e for e in universe if isinstance(e, int)), default=-1) + 1
        anchor = rng.choice(universe)
        return Delta(add_elements=(new,), add_facts=[("E", (anchor, new))])
    if roll < 0.20:
        # Shrink: drop an isolated element if one exists.
        used = set()
        for _, tup in facts:
            used.update(tup)
        isolated = [
            e
            for e in universe
            if e not in used and e not in structure.constants.values()
        ]
        if isolated and len(universe) > 2:
            return Delta(remove_elements=(rng.choice(isolated),))
    if roll < 0.55 and len(facts) > 1:
        name, tup = facts[rng.randrange(len(facts))]
        return Delta(remove_facts=[(name, tup)])
    for _ in range(20):
        a, b = rng.choice(universe), rng.choice(universe)
        if not structure.has_fact("E", (a, b)):
            return Delta(add_facts=[("E", (a, b))])
    if facts:
        name, tup = facts[rng.randrange(len(facts))]
        return Delta(remove_facts=[(name, tup)])
    return Delta()


# ----------------------------------------------------------------------
# Homomorphism streams
# ----------------------------------------------------------------------
def _hom_stream(seed, steps, injector_seed=None):
    """Yield ``(verdict, case)`` after each edit of one seeded session.
    With ``injector_seed`` every decision runs under a fault injector;
    without, caches are evicted between steps at random."""
    rng = random.Random(seed)
    engine = HomEngine()
    injector = (None if injector_seed is None else
                FaultInjector(seed=injector_seed, rate=0.3, engine=engine))
    pool = structure_pool()
    source = pool[rng.randrange(len(pool))]
    target = pool[rng.randrange(len(pool))]
    session = IncrementalHomSession(source, target, engine=engine)
    with governed(deadline=10.0, injector=injector):
        session.decide()
    for _ in range(steps):
        side = "source" if rng.random() < 0.5 else "target"
        delta = random_delta(rng, getattr(session, side))
        with governed(deadline=10.0, injector=injector):
            verdict = getattr(session, "edit_" + side)(delta)
        yield verdict, Case(session.source, session.target)
        if verdict.is_unknown:
            # A trip poisons nothing: drop the stale UNKNOWN so the
            # next edit re-decides in full.
            session.last_verdict = None
        elif injector is None and rng.random() < 0.25:
            engine.cache.clear()  # the chaos evict, between steps
            engine.compiled_targets.clear()


def test_hom_streams_agree_with_oracle():
    disagreements = [
        (stream, verdict)
        for stream in range(HOM_STREAMS)
        for verdict, case in _hom_stream(1000 + stream, HOM_STEPS)
        if verdict.is_unknown or not agrees(case, verdict.witness)
    ]
    assert disagreements == []


def test_governed_streams_definite_verdicts_agree():
    """Under fault injection UNKNOWN is allowed, a wrong verdict not."""
    verdicts = [
        (verdict, case)
        for stream in range(GOVERNED_STREAMS)
        for verdict, case in _hom_stream(2000 + stream, GOVERNED_STEPS,
                                         injector_seed=stream)
    ]
    assert not [v for v, case in verdicts
                if not v.is_unknown and not agrees(case, v.witness)]
    assert any(v.is_unknown for v, _ in verdicts)  # trips did happen


# ----------------------------------------------------------------------
# Core streams
# ----------------------------------------------------------------------
def test_core_streams_agree_with_oracle():
    disagreements = []
    for stream in range(CORE_STREAMS):
        rng = random.Random(3000 + stream)
        engine = HomEngine()
        structure = random_structure(GRAPH, 4 + stream % 3, 0.4, seed=stream)
        session = IncrementalCoreSession(structure, engine=engine)
        session.core()
        for step in range(CORE_STEPS):
            delta = random_delta(rng, session.structure)
            core = session.edit(delta)
            if core.size() != core_size(session.structure):
                disagreements.append((stream, step, core))
            assert core.is_substructure_of(session.structure), (stream, step)
            if rng.random() < 0.25:
                engine.cache.clear()
                engine.compiled_targets.clear()
    assert disagreements == []


# ----------------------------------------------------------------------
# Datalog streams (tuple-exact)
# ----------------------------------------------------------------------
TC = parse_program(
    "T(x, y) <- E(x, y).\nT(x, z) <- E(x, y), T(y, z).", GRAPH
)


def test_datalog_streams_are_tuple_exact():
    for stream in range(DATALOG_STREAMS):
        rng = random.Random(4000 + stream)
        structure = random_structure(GRAPH, 5 + stream % 3, 0.3, seed=stream)
        fix = IncrementalFixpoint(TC, structure)
        fix.relation("T")
        for step in range(DATALOG_STEPS):
            delta = random_delta(rng, fix.structure)
            fix.apply(delta)
            want = evaluate_semi_naive(TC, fix.structure).relations
            assert fix.relation("T") == set(want["T"]), (stream, step)
