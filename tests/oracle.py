"""One oracle for every homomorphism answer path (collects no tests).

* **Seeded families**: small random pairs over graph, coloured and
  ternary vocabularies, the chaos :func:`structure_pool`, the paper's
  classes with their core sizes, sweep-spec pairs, and closed-form pairs
  from the layered benchmark.
* **One brute-force oracle**: :func:`brute_force` lists every mapping,
  honours the options and checks facts with its own :func:`maps`, not
  the library's ``is_homomorphism``.  Past :data:`MAX_MAPPINGS` it
  refuses; a case's known answer or the reference solver judges instead
  (:attr:`Case.judge`), and :data:`JUDGED` counts each judge.
* **A registry of answer paths**: :data:`PATHS`.  :func:`check` runs
  every path that supports a case and requires the oracle's verdict, a
  valid witness honouring the options and, on the enumerating paths,
  the oracle's solution set.
"""

from __future__ import annotations

import importlib.util
import itertools
import os
import random
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.engine import HomEngine
from repro.engine.cache import HomCache
from repro.graphtheory import make_nice, treewidth_upper_bound
from repro.graphtheory.generators import k_tree, random_tree
from repro.homomorphism.search import HomomorphismSearch
from repro.incremental import Delta, IncrementalHomSession, apply_delta
from repro.kernel import (
    BitsetHomomorphismSolver,
    CompiledTarget,
    TreewidthDPSolver,
)
from repro.kernel.compile import CompiledTargetCache
from repro.parallel.sweeps import build_structure, hom_task
from repro.resources import SweepJournal
from repro.serve import decode_witness, encode_frame, hom_query
from repro.serve.protocol import decode_frame
from repro.serve.service import DecisionService
from repro.structures import (
    Structure,
    Vocabulary,
    clique_structure,
    disjoint_union,
    gaifman_graph,
    graph_as_structure,
    grid_structure,
    random_structure,
    single_edge,
    undirected_cycle,
    undirected_path,
)

GRAPH = Vocabulary({"E": 2})
COLORED = Vocabulary({"E": 2, "P": 1})
TERNARY = Vocabulary({"T": 3})

#: The largest ``|target| ** |source|`` the brute force lists.
MAX_MAPPINGS = 4096

#: The judge past the cap: reference solver, no kernel, DP or memo.
REFERENCE = HomEngine(use_kernel=False, use_dp=False, cache_enabled=False)

#: Answers given per judge: ``brute``, ``known``, ``reference``.
JUDGED: Counter = Counter()

DEFAULT_OPTIONS = {"injective": False, "pinned": {},
                   "forbidden_images": frozenset(), "propagate": True}


# ----------------------------------------------------------------------
# Seeded families
# ----------------------------------------------------------------------
@dataclass
class Case:
    """One query ``source → target``; options at their default are
    dropped.  ``specs`` rebuild the pair for the sweep path; ``known``
    is a closed-form answer."""

    source: Structure
    target: Structure
    options: Dict[str, Any] = field(default_factory=dict)
    specs: Optional[Tuple[Any, Any]] = None
    known: Optional[bool] = None

    def __post_init__(self) -> None:
        self.options = {k: v for k, v in self.options.items()
                        if v != DEFAULT_OPTIONS[k]}

    @property
    def judge(self) -> str:
        mappings = len(self.target.universe) ** len(self.source.universe)
        if mappings <= MAX_MAPPINGS:
            return "brute"
        return "reference" if self.known is None else "known"


def random_pair(vocabulary: Vocabulary, seed: int):
    """The seeded small pair every differential tier has used."""
    size_a, size_b = 1 + seed % 4, 1 + (seed // 4) % 4
    density_a = 0.15 + 0.2 * (seed % 3)
    density_b = 0.15 + 0.2 * ((seed // 3) % 3)
    a = random_structure(vocabulary, size_a, density_a, seed=2 * seed)
    b = random_structure(vocabulary, size_b, density_b, seed=2 * seed + 1)
    return a, b


def both_ways(a: Structure, b: Structure) -> List[Case]:
    return [Case(a, b), Case(b, a)]


def option_modes(a: Structure, b: Structure) -> List[Case]:
    """Both directions, injective, pinned and forbidden images
    (propagation off both ways instead when a side is empty)."""
    cases = both_ways(a, b) + [Case(a, b, {"injective": True})]
    if a.universe and b.universe:
        return cases + [
            Case(a, b, {"pinned": {a.universe[0]: b.universe[0]}}),
            Case(a, b, {"forbidden_images": frozenset([b.universe[0]])}),
        ]
    return cases + [Case(a, b, {"propagate": False}),
                    Case(b, a, {"propagate": False})]


def batch_sources(vocabulary: Vocabulary, seed: int) -> List[Structure]:
    """Four small sources for one batched target."""
    return [
        random_structure(vocabulary, 1 + (seed + k) % 4,
                         0.15 + 0.2 * ((seed + k) % 3), seed=97 * seed + k)
        for k in range(4)
    ]


def ternary_pair(seed: int):
    """A ternary source whose facts repeat a variable, and a target."""
    rng = random.Random(seed)
    size = rng.randint(2, 4)
    universe = list(range(size))
    facts = set(random_structure(
        TERNARY, size, 0.08, seed=rng.randrange(1 << 30)
    ).relation("T"))
    for _ in range(rng.randint(1, 3)):
        x, y = rng.choice(universe), rng.choice(universe)
        facts.add(rng.choice([(x, y, x), (x, x, y), (y, x, x)]))
    source = Structure(TERNARY, universe, {"T": sorted(facts)})
    target = random_structure(
        TERNARY, rng.randint(2, 3), rng.choice((0.2, 0.35, 0.5)),
        seed=rng.randrange(1 << 30),
    )
    return source, target


def structure_pool() -> List[Structure]:
    """Small deterministic structures reused across chaos trials (so
    memo keys recur and evictions hit warm entries)."""
    pool = [single_edge(), undirected_path(2), undirected_path(3),
            undirected_cycle(3), undirected_cycle(4), undirected_cycle(5)]
    for seed in range(6):
        pool.append(random_structure(GRAPH, 2 + seed % 3, 0.4, seed=seed))
    return pool


def paper_classes() -> Dict[str, List[Tuple[Structure, int]]]:
    """Structures of the paper's classes with their core sizes.  ``C6``
    and ``C3 + C3`` get equal colour-refinement fingerprints, so a memo
    trusting fingerprints alone would confuse them."""
    c3, cycle = undirected_cycle(3), undirected_cycle
    return {
        "bounded-degree": [(c3, 3), (cycle(4), 2), (cycle(5), 5),
                           (cycle(6), 2), (disjoint_union(c3, c3), 3),
                           (undirected_path(4), 2)],
        "bounded-treewidth": [(graph_as_structure(random_tree(6, seed=1)), 2),
                              (graph_as_structure(k_tree(2, 5, seed=2)), 3)],
        "excluded-minor": [(grid_structure(2, 3), 2),
                           (clique_structure(4), 4)],
    }


def closed_form_cases(step: int = 80) -> List[Case]:
    """Every ``step``-th pair of the layered benchmark's closed-form
    pool, with its known answer."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "benchmarks", "layers", "families.py")
    spec = importlib.util.spec_from_file_location("_layer_families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return [Case(build_structure(p.source), build_structure(p.target),
                 specs=(p.source, p.target), known=p.expected)
            for p in families.closed_form_pool()[::step]]


def spec_cases() -> List[Case]:
    """Small pairs built from sweep specs, judged by brute force."""
    specs = [("random-digraph", (n, 0.4, seed))
             for n in (2, 3, 4) for seed in range(2)]
    specs += [("undirected-path", (3,)), ("undirected-cycle", (3,)),
              ("clique", (2,))]
    return [Case(build_structure(s), build_structure(t), specs=(s, t))
            for s in specs for t in specs]


# ----------------------------------------------------------------------
# The brute-force oracle
# ----------------------------------------------------------------------
def maps(source: Structure, target: Structure, mapping) -> bool:
    """Whether ``mapping`` sends every fact and constant of ``source``
    onto ``target``."""
    for name in source.vocabulary.relation_names:
        facts = target.relation(name)
        for tup in source.relation(name):
            if tuple(mapping[x] for x in tup) not in facts:
                return False
    return all(mapping[e] == target.constants[c]
               for c, e in source.constants.items())


def brute_force(source, target, injective=False, pinned=None,
                forbidden_images=(), propagate=True,
                limit=MAX_MAPPINGS) -> FrozenSet:
    """Every homomorphism meeting the options, as frozen item sets."""
    src = source.universe
    if len(target.universe) ** len(src) > limit:
        raise ValueError(f"too many mappings: {source!r} -> {target!r}")
    # ``maps`` over positions: images[i] is the image of src[i].
    at = {e: i for i, e in enumerate(src)}
    facts = [(target.relation(name), tuple(at[x] for x in tup))
             for name, tup in source.facts()]
    fixed = [(at[e], target.constants[c])
             for c, e in source.constants.items()]
    fixed += [(at[e], v) for e, v in (pinned or {}).items()]
    forbidden = set(forbidden_images)
    return frozenset(
        frozenset(zip(src, images))
        for images in itertools.product(target.universe, repeat=len(src))
        if not (injective and len(set(images)) < len(images))
        and not forbidden.intersection(images)
        and all(images[i] == v for i, v in fixed)
        and all(tuple(images[i] for i in tup) in rel for rel, tup in facts)
    )


@dataclass(frozen=True)
class Expected:
    exists: bool
    solutions: Optional[FrozenSet]  # None unless brute-forced
    judge: str


def expected(case: Case) -> Expected:
    """The oracle's answer, from the case's judge."""
    judge = case.judge
    JUDGED[judge] += 1
    if judge == "brute":
        solutions = brute_force(case.source, case.target, **case.options)
        assert case.known in (None, bool(solutions)), case
        return Expected(bool(solutions), solutions, judge)
    if judge == "known":
        return Expected(case.known, None, judge)
    witness = REFERENCE.find_homomorphism(
        case.source, case.target, **case.options
    )
    return Expected(witness is not None, None, judge)


def agrees(case: Case, witness) -> bool:
    """Whether a solver's witness-or-``None`` matches the oracle."""
    if witness is None:
        return not expected(case).exists
    return expected(case).exists and respects(case, witness)


def respects(case: Case, witness) -> bool:
    """Whether ``witness`` is a homomorphism defined on exactly the
    source universe and honouring the case's options (no answer path
    may return keys outside the universe, though the library's
    ``is_homomorphism`` ignores them)."""
    if set(witness) != set(case.source.universe):
        return False
    images = [witness[e] for e in case.source.universe]
    options = case.options
    return (
        set(images) <= set(case.target.universe)
        and maps(case.source, case.target, witness)
        and not (options.get("injective") and len(set(images)) < len(images))
        and all(witness[k] == v for k, v in options.get("pinned", {}).items())
        and not set(images) & set(options.get("forbidden_images", ()))
    )


def core_size(structure: Structure, limit: int = MAX_MAPPINGS) -> int:
    """The fewest elements an endomorphism's image can have: brute
    force up to ``limit`` mappings, else the reference engine's core."""
    if structure.size() ** structure.size() > limit:
        JUDGED["reference"] += 1
        return REFERENCE.core(structure).size()
    JUDGED["brute"] += 1
    endomorphisms = brute_force(structure, structure, limit=limit)
    return min(len({image for _, image in h}) for h in endomorphisms)


# ----------------------------------------------------------------------
# The answer paths
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AnswerPath:
    """``solve`` maps a case to ``(verdict, witness)``, the verdict
    ``None`` for UNKNOWN; ``enumerate`` lists every solution."""

    name: str
    solve: Callable[[Case], Tuple[Optional[bool], Optional[dict]]]
    options: FrozenSet[str] = frozenset()
    enumerate: Optional[Callable[[Case], Any]] = None
    needs_specs: bool = False

    def supports(self, case: Case) -> bool:
        return (set(case.options) <= self.options
                and (case.specs is not None or not self.needs_specs))


def _found(witness):
    return witness is not None, witness


def _reference(case):
    return HomomorphismSearch(case.source, case.target, **case.options)


def _kernel(case):
    return BitsetHomomorphismSolver(
        case.source, CompiledTarget(case.target), **case.options
    )


def force_dp(source, compiled, **options) -> TreewidthDPSolver:
    """A DP solver for ``source`` whatever the production gate says."""
    graph = gaifman_graph(source)
    nice = make_nice(treewidth_upper_bound(graph)[1], graph)
    return TreewidthDPSolver(source, compiled, nice, **options)


def _engine() -> HomEngine:
    """An engine kept for the whole run, so entries recur across nearby
    cases, with small caches, so it does not hoard old structures."""
    engine = HomEngine()
    engine.cache = HomCache(64)
    engine.compiled_targets = CompiledTargetCache(64)
    return engine


class _Batch:
    """``HomEngine.batch`` with the memo off, so the batch session
    answers; one handle per run of cases sharing a target."""

    def __init__(self) -> None:
        self.engine = _engine()
        self.engine.cache_enabled = False
        self.target = self.handle = None

    def __call__(self, case):
        if case.target is not self.target:
            self.target = case.target
            self.handle = self.engine.batch(case.target)
        return _found(self.handle.find(case.source, **case.options))


#: The memo and incremental paths' engines.
MEMO, WARM = _engine(), _engine()


def _memo(case):
    """The second of two identical calls, which must be a memo hit."""
    first = MEMO.find_homomorphism(case.source, case.target, **case.options)
    hits = MEMO.stats.cache_hits
    second = MEMO.find_homomorphism(case.source, case.target, **case.options)
    assert MEMO.stats.cache_hits == hits + 1, f"repeat missed: {case}"
    assert first == second, case
    return _found(second)


def _incremental(case):
    """``IncrementalHomSession``'s re-decision after one edit: the
    session opens without a fact of one side, then the edit adds it."""
    sides = (("source", "target") if len(case.source.universe) % 2
             else ("target", "source"))
    session = IncrementalHomSession(case.source, case.target, WARM)
    for side in sides:
        fact = next(getattr(case, side).facts(), None)
        if fact is not None:
            delta = Delta(add_facts=[fact])
            start, _ = apply_delta(getattr(case, side), delta.inverse())
            setattr(session, side, start)
            session.decide()
            verdict = getattr(session, "edit_" + side)(delta)
            break
    else:
        verdict = session.decide()
    return _VALUES[verdict.value.value], verdict.witness


#: The serve path's service, on its own engine and breaker.
SERVICE = DecisionService(engine=_engine())
_VALUES = {"TRUE": True, "FALSE": False, "UNKNOWN": None}


def _serve(case):
    """``DecisionService.execute`` on a wire-encoded query, its entry
    read back through the wire encoding."""
    def wire(payload):
        return decode_frame(encode_frame(payload))

    entry = wire(SERVICE.execute(wire(
        hom_query(case.source, case.target, **case.options)
    )))
    assert entry["status"] == "ok", entry
    verdict = entry["verdict"]
    witness = verdict["witness"]
    return (_VALUES[verdict["value"]],
            None if witness is None else decode_witness(witness))


def _sweep(case):
    """A ``hom_task`` record, journaled and read back (no witness)."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "hom.jsonl")
        SweepJournal(journal).record("case", hom_task(case.specs))
        return _VALUES[SweepJournal(journal).result("case")["verdict"]], None


ALL_OPTIONS = frozenset(DEFAULT_OPTIONS)
PATHS: Tuple[AnswerPath, ...] = (
    AnswerPath("reference", lambda c: _found(_reference(c).first()),
               ALL_OPTIONS, lambda c: _reference(c).solutions()),
    AnswerPath("kernel", lambda c: _found(_kernel(c).first()),
               ALL_OPTIONS, lambda c: _kernel(c).solutions()),
    AnswerPath("dp", lambda c: _found(force_dp(
        c.source, CompiledTarget(c.target), **c.options).first()),
        ALL_OPTIONS - {"injective"}),
    AnswerPath("batch", _Batch(), ALL_OPTIONS),
    AnswerPath("memo", _memo, ALL_OPTIONS),
    AnswerPath("incremental", _incremental),
    AnswerPath("serve", _serve, frozenset({"injective"})),
    AnswerPath("sweep", _sweep, needs_specs=True),
)


def path(name: str) -> AnswerPath:
    return next(p for p in PATHS if p.name == name)


def coverage(cases: List[Case]) -> Dict[str, int]:
    """How many of ``cases`` each path answers."""
    return {p.name: sum(map(p.supports, cases)) for p in PATHS}


def check(case: Case, paths=PATHS) -> Expected:
    """Compare every path in ``paths`` that supports ``case`` with the
    oracle; returns the oracle's answer."""
    want = expected(case)
    for p in (p for p in paths if p.supports(case)):
        verdict, witness = p.solve(case)
        assert verdict is want.exists, (
            f"{p.name} says {verdict}, the {want.judge} oracle "
            f"{want.exists}: {case}"
        )
        if verdict and not p.needs_specs:
            assert respects(case, witness), f"{p.name} {witness}: {case}"
        if p.enumerate and want.solutions is not None:
            listed = [frozenset(h.items()) for h in p.enumerate(case)]
            assert len(listed) == len(set(listed)) and set(
                listed) == want.solutions, f"{p.name} enumerates: {case}"
    return want
