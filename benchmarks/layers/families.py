"""Seeded instance families for the layered benchmark, with their answers.

Every instance is a pair of :func:`repro.parallel.sweeps.build_structure`
specs, so one candidate list feeds the in-process workloads (decoded from
wire dicts) and the sweep workload (rebuilt from specs inside workers).

Each candidate carries its expected verdict.  Cycles, paths, grids and
cliques have closed-form answers (bipartiteness, odd girth, pigeonhole);
chorded paths have none, so :func:`oracle_verdict` decides them with the
reference solver under a deterministic step budget, and a chorded path
whose oracle run trips the budget is not used.  Answers are therefore
fixed by the seed alone, never by timing.

Costs are kept stable across seeds on purpose.  Workloads draw from
fixed candidate lists by :func:`systematic` sampling — evenly spaced
ranks of a cost proxy, from a seeded offset — so every seed gets a
different set of instances with the same cost profile; the seed also
orders them and places the chords of chorded paths.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

Spec = Tuple[str, Tuple[int, ...]]
T = TypeVar("T")

K2: Spec = ("clique", (2,))
K3: Spec = ("clique", (3,))
K4: Spec = ("clique", (4,))
C7: Spec = ("undirected-cycle", (7,))

#: Step budget of the reference-solver oracle for chorded paths.
ORACLE_BUDGET = 3_000


def cycle(n: int) -> Spec:
    return ("undirected-cycle", (n,))


def path(n: int) -> Spec:
    return ("undirected-path", (n,))


def grid(rows: int, cols: int) -> Spec:
    return ("grid", (rows, cols))


def clique(n: int) -> Spec:
    return ("clique", (n,))


def chorded(n: int, seed: int) -> Spec:
    return ("chorded-path", (n, n // 5, seed))


#: Targets every non-empty bipartite source maps into.
EDGE_TARGETS: Tuple[Spec, ...] = (
    K2, K3, K4, cycle(5), cycle(6), C7, cycle(8), cycle(9),
)

#: Bipartite targets (with an edge): an odd cycle maps into none.
BIPARTITE_TARGETS: Tuple[Spec, ...] = (
    K2, cycle(4), cycle(6), cycle(8), cycle(10), cycle(12), path(3),
    path(4), path(5), path(6), grid(2, 3), grid(2, 4), grid(3, 3),
)


class Pair:
    """One hom instance ``source → target`` with its expected verdict.

    ``cls`` is the mix class: ``true``, ``false``, ``hard-false`` (a
    backtracking-heavy refutation) or ``oracle`` (no closed form).
    """

    __slots__ = ("source", "target", "expected", "cls")

    def __init__(self, source: Spec, target: Spec,
                 expected: Optional[bool], cls: str) -> None:
        self.source = source
        self.target = target
        self.expected = expected
        self.cls = cls

    @property
    def key(self) -> str:
        (sk, sp), (tk, tp) = self.source, self.target
        return (f"{sk}{list(sp)}->{tk}{list(tp)}").replace(" ", "")


def size(spec: Spec) -> int:
    kind, params = spec
    return params[0] * params[1] if kind == "grid" else params[0]


def work(spec: Spec) -> int:
    """Cost proxy: elements × WL refinement rounds (about the diameter
    on paths and grids, one round on cycles and cliques)."""
    kind, params = spec
    if kind == "undirected-path":
        return params[0] * params[0] // 2
    if kind == "grid":
        return params[0] * params[1] * (params[0] + params[1]) // 2
    if kind == "clique":
        return params[0] * params[0]
    return params[0]


def pair_work(pair: Pair) -> Tuple[int, str]:
    return (work(pair.source) + work(pair.target), pair.key)


def systematic(rng: random.Random, candidates: Sequence[T], k: int,
               key: Callable[[T], object]) -> List[T]:
    """``k`` candidates at evenly spaced ranks of ``key``, starting from
    a seeded offset (repeats when ``k`` exceeds the candidates)."""
    ordered = sorted(candidates, key=key)
    step = len(ordered) / k
    offset = rng.random() * step
    return [ordered[min(len(ordered) - 1, int(offset + i * step))]
            for i in range(k)]


def oracle_verdict(source: Spec, target: Spec) -> Optional[bool]:
    """The reference solver's verdict, or ``None`` past the budget."""
    from repro.engine import HomEngine
    from repro.exceptions import ResourceError
    from repro.parallel.sweeps import build_structure
    from repro.resources import governed

    engine = HomEngine(use_kernel=False, use_dp=False, cache_enabled=False)
    try:
        with governed(budget=ORACLE_BUDGET):
            witness = engine.find_homomorphism(
                build_structure(source), build_structure(target)
            )
    except ResourceError:
        return None
    return witness is not None


def chorded_pairs(rng: random.Random, count: int, lo: int,
                  hi: int) -> List[Pair]:
    """``count`` chorded-path → C7 pairs with lengths evenly spread over
    ``[lo, hi]``; the seed places the chords, redrawing any the oracle
    cannot decide within its budget."""
    lengths = systematic(rng, range(lo, hi + 1), count, key=int)
    pairs: List[Pair] = []
    for n in lengths:
        while True:
            spec = chorded(n, rng.randrange(1 << 30))
            verdict = oracle_verdict(spec, C7)
            if verdict is not None:
                pairs.append(Pair(spec, C7, verdict, "oracle"))
                break
    return pairs


def _odd(lo: int, hi: int) -> range:
    return range(lo | 1, hi + 1, 2)


def _even(lo: int, hi: int) -> range:
    return range(lo + lo % 2, hi + 1, 2)


def cold_pairs(seed: int, count: int = 200) -> List[Pair]:
    """The hom-cold instance list: ~40% TRUE, ~40% FALSE, ~20% hard.

    Proportions are per 200 (``count`` scales them for smoke runs).
    Every call costs 1–80 ms cold; the slowest class, K7 → K6 at about
    50 ms, is 2% of the list, which is where the p99 lands.
    """
    rng = random.Random(seed)

    def n_of(k: int) -> int:
        return max(1, round(k * count / 200))

    def slot(k: int, candidates: List[Pair]) -> List[Pair]:
        return systematic(rng, candidates, n_of(k), key=pair_work)

    grids = [grid(r, c) for r in range(3, 6) for c in range(5, 8)]
    pairs: List[Pair] = []
    pairs += slot(20, [Pair(cycle(n), K2, True, "true")
                       for n in _even(30, 50)])
    pairs += slot(20, [Pair(path(n), t, True, "true")
                       for n in range(12, 27) for t in (cycle(5), C7)])
    pairs += slot(20, [Pair(g, t, True, "true")
                       for g in grids for t in (K2, K3)])
    pairs += slot(20, [Pair(cycle(n), cycle(m), True, "true")
                       for n in _odd(21, 35) for m in (5, 7)])
    pairs += slot(25, [Pair(cycle(n), K2, False, "false")
                       for n in _odd(31, 51)])
    pairs += slot(15, [Pair(cycle(n), t, False, "false")
                       for n in _odd(21, 45) for t in (cycle(6), cycle(8))])
    pairs += chorded_pairs(rng, n_of(40), 20, 36)
    for n, k in ((4, 10), (5, 10), (6, 4)):
        pairs += [Pair(clique(n + 1), clique(n), False, "hard-false")] \
            * n_of(k)
    pairs += slot(16, [Pair(cycle(n), cycle(n + 2), False, "hard-false")
                       for n in (13, 17, 21, 25)])
    rng.shuffle(pairs)
    return pairs


def warm_pairs(seed: int, count: int = 64) -> List[Pair]:
    """The hom-warm working set: ``count`` distinct pairs.

    A hit pays decode + fingerprint + lookup, which grows with the
    structures; the largest pair (a 6x6 grid into K3, 1/64 of calls,
    twice the cost of the next) is the same for every seed, so the p99
    lands inside it, near its median, and not on the slowest moments
    of a spread of sizes.  With four fixed 6x6-grid pairs (6% of calls)
    the p99 sat at their slowest sixth and spread 0.18 of its median
    over ten seeds; with one, 0.01.
    """
    rng = random.Random(seed)
    fixed = [Pair(grid(6, 6), K3, True, "true")]
    candidates = (
        [Pair(cycle(n), t, True, "true")
         for n in _even(20, 40) for t in EDGE_TARGETS]
        + [Pair(path(n), t, True, "true")
           for n in range(8, 17) for t in EDGE_TARGETS]
        + [Pair(grid(r, c), t, True, "true")
           for r in (2, 3, 4) for c in (3, 4, 5) for t in EDGE_TARGETS]
        + [Pair(cycle(n), K2, False, "false") for n in _odd(21, 41)]
        + [Pair(cycle(n), cycle(m), False, "hard-false")
           for n in _odd(9, 21) for m in (23, 25)]
    )
    pairs = fixed + systematic(rng, candidates, count - len(fixed),
                               key=pair_work)
    rng.shuffle(pairs)
    return pairs


def closed_form_pool() -> List[Pair]:
    """Every closed-form pair the serve and sweep workloads draw from:
    TRUE (even cycles, paths and grids into any target with an edge,
    odd cycles into shorter odd cycles or cliques), FALSE (odd cycles
    into bipartite targets) and hard-FALSE (odd cycles into longer odd
    cycles, K(n+1) → Kn).  Sizes stop where a cold call passes ~40 ms.
    """
    pool: List[Pair] = []
    for n in _even(10, 60):
        pool += [Pair(cycle(n), t, True, "true") for t in EDGE_TARGETS]
    for n in range(6, 25):
        pool += [Pair(path(n), t, True, "true") for t in EDGE_TARGETS]
    for rows in range(2, 6):
        for cols in range(rows, 8):
            if rows * cols != 16 and rows * cols <= 30:
                pool += [Pair(grid(rows, cols), t, True, "true")
                         for t in EDGE_TARGETS]
    for n in _odd(11, 61):
        pool += [Pair(cycle(n), t, True, "true")
                 for t in (K3, K4, cycle(5), C7) if size(t) <= n]
        pool += [Pair(cycle(n), t, False, "false")
                 for t in BIPARTITE_TARGETS]
    for n in _odd(9, 25):
        pool += [Pair(cycle(n), cycle(m), False, "hard-false")
                 for m in range(n + 2, n + 11, 2)]
    pool += [Pair(clique(n + 1), clique(n), False, "hard-false")
             for n in (3, 4, 5)]
    return pool


def sweep_pairs(seed: int, count: int = 1000) -> List[Pair]:
    """``count`` distinct pairs from the hom-cold families: the closed-
    form pool stratified 55% TRUE / 30% FALSE / 5% hard-FALSE, plus 10%
    oracle-decided chorded paths.  Distinct specs matter: each worker's
    process-global engine would turn a repeat into a memo hit.
    """
    rng = random.Random(seed)
    pool = closed_form_pool()
    pairs: List[Pair] = []
    for cls, share in (("true", 0.55), ("false", 0.30),
                       ("hard-false", 0.05)):
        members = [p for p in pool if p.cls == cls]
        pairs += systematic(rng, members, min(len(members),
                                              round(share * count)),
                            key=pair_work)
    pairs += chorded_pairs(rng, count - len(pairs), 20, 32)
    rng.shuffle(pairs)
    return pairs


def edit_sessions() -> List[Tuple[Spec, Spec, bool]]:
    """The four edit-stream sessions ``(source, target, verdict)``: two
    TRUE 3-colourable grids → K3 and two FALSE odd cycles → K2, with
    100–121 elements each.  Sizes are fixed (the seed draws the edits)
    because a source edit's cost grows with the square of the size: it
    re-runs WL refinement for a number of rounds close to the diameter.
    """
    return [
        (grid(10, 10), K3, True),
        (grid(10, 12), K3, True),
        (cycle(101), K2, False),
        (cycle(121), K2, False),
    ]


def treewidth_of(spec: Spec) -> int:
    """Closed-form treewidth of the serve workload's treewidth inputs."""
    kind, params = spec
    if kind == "undirected-cycle":
        return 2
    if kind == "undirected-path":
        return 1
    if kind == "grid":
        return min(params)
    if kind == "clique":
        return params[0] - 1
    raise ValueError(f"no closed-form treewidth for {spec!r}")


def core_size_of(spec: Spec) -> int:
    """Closed-form core size: bipartite graphs with an edge fold to K2;
    odd cycles and cliques are their own cores."""
    kind, params = spec
    if kind == "undirected-cycle" and params[0] % 2 == 1:
        return params[0]
    if kind == "clique":
        return params[0]
    return 2
