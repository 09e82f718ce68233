"""Property-based tests (hypothesis) for core invariants.

Each block states a theorem-level invariant of the library and checks it
on randomized structures/graphs: homomorphism composition, core
idempotence, hom-equivalence and minimality, Chandra–Merlin agreement,
containment, Gaifman/treewidth monotonicity, scattered-set reduction,
serialization round-trips, and engine agreement.  Hom verdicts and
witnesses are judged by the shared oracle of :mod:`tests.oracle`.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cq import (
    canonical_query,
    chandra_merlin_check,
    evaluation_agrees,
    is_contained_in,
    minimize,
    are_equivalent,
)
from repro.graphtheory import (
    Graph,
    greedy_scattered_set,
    is_scattered,
    power_graph,
    treewidth_exact,
    treewidth_lower_bound,
    treewidth_upper_bound,
)
from repro.homomorphism import (
    compute_core,
    compute_core_with_map,
    find_homomorphism,
    has_homomorphism,
)
from repro.structures import (
    GRAPH_VOCABULARY,
    Structure,
    disjoint_union,
    gaifman_graph,
    structure_from_json,
    structure_to_json,
)

from .oracle import Case, core_size, expected, respects

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def digraphs(draw, max_size=4):
    """Random small directed-graph structures."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    possible = [(i, j) for i in range(n) for j in range(n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=8,
                          unique=True))
    return Structure(GRAPH_VOCABULARY, range(n), {"E": edges})


@st.composite
def simple_graphs(draw, max_size=7):
    """Random small simple graphs."""
    n = draw(st.integers(min_value=1, max_value=max_size))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), max_size=12,
                          unique=True)) if possible else []
    return Graph(range(n), edges)


class TestHomomorphismProperties:
    @given(a=digraphs(), b=digraphs(), c=digraphs())
    @SETTINGS
    def test_composition(self, a, b, c):
        f = find_homomorphism(a, b)
        g = find_homomorphism(b, c)
        if f is not None and g is not None:
            assert respects(Case(a, c), {x: g[f[x]] for x in a.universe})
            assert expected(Case(a, c)).exists

    @given(a=digraphs())
    @SETTINGS
    def test_identity(self, a):
        assert respects(Case(a, a), {e: e for e in a.universe})

    @given(a=digraphs(), b=digraphs())
    @SETTINGS
    def test_found_homs_verify(self, a, b):
        hom = find_homomorphism(a, b)
        assert (hom is not None) == expected(Case(a, b)).exists
        if hom is not None:
            assert respects(Case(a, b), hom)

    @given(a=digraphs(), b=digraphs())
    @SETTINGS
    def test_union_maps_to_components_iff_both(self, a, b):
        u = disjoint_union(a, b)
        # hom from union to X iff hom from both parts (and a -> a)
        assert has_homomorphism(u, a) == expected(Case(b, a)).exists


class TestCoreProperties:
    @given(a=digraphs())
    @SETTINGS
    def test_core_is_core(self, a):
        core = compute_core(a)
        assert core_size(core) == core.size()  # no smaller endomorphic image

    @given(a=digraphs())
    @SETTINGS
    def test_core_substructure_and_equivalent(self, a):
        core, mapping = compute_core_with_map(a)
        assert core.is_substructure_of(a)
        assert respects(Case(a, core), mapping)
        assert expected(Case(core, a)).exists

    @given(a=digraphs())
    @SETTINGS
    def test_core_idempotent(self, a):
        core = compute_core(a)
        assert compute_core(core) == core


class TestChandraMerlinProperty:
    @given(a=digraphs(), b=digraphs())
    @SETTINGS
    def test_three_statements_agree(self, a, b):
        result = chandra_merlin_check(a, b)
        assert set(result.values()) == {expected(Case(a, b)).exists}

    @given(a=digraphs(), b=digraphs())
    @SETTINGS
    def test_containment_soundness(self, a, b):
        """``Qa ⊆ Qb`` iff ``canon(Qb) → canon(Qa)``, and containment is
        sound on both canonical structures."""
        qa, qb = canonical_query(a), canonical_query(b)
        assert is_contained_in(qa, qb) == expected(Case(
            qb.canonical_structure(), qa.canonical_structure()
        )).exists
        if is_contained_in(qa, qb):
            # soundness spot check on both canonical structures
            for s in (a, b):
                if qa.holds_in(s):
                    assert qb.holds_in(s)


class TestMinimizationProperty:
    @given(a=digraphs(max_size=3))
    @SETTINGS
    def test_minimize_equivalent_and_minimal(self, a):
        q = canonical_query(a)
        m = minimize(q)
        assert are_equivalent(q, m)
        assert m.num_atoms() <= q.num_atoms()

    @given(a=digraphs(max_size=3))
    @SETTINGS
    def test_minimized_atom_count_is_core_size(self, a):
        q = canonical_query(a)
        m = minimize(q)
        core = compute_core(a)
        assert m.num_atoms() == core.num_facts()


class TestEvaluationEngines:
    @given(a=digraphs(max_size=3), b=digraphs(max_size=4))
    @SETTINGS
    def test_engines_agree_on_canonical_queries(self, a, b):
        q = canonical_query(a)
        assert evaluation_agrees(q, b)


class TestGraphProperties:
    @given(g=simple_graphs())
    @SETTINGS
    def test_treewidth_bounds_sandwich(self, g):
        exact = treewidth_exact(g)
        assert treewidth_lower_bound(g) <= exact
        upper, decomp = treewidth_upper_bound(g)
        assert exact <= upper
        decomp.validate(g)

    @given(g=simple_graphs())
    @SETTINGS
    def test_treewidth_monotone_under_subgraphs(self, g):
        if g.num_vertices() > 1:
            sub = g.remove_vertices([g.vertices[0]])
            assert treewidth_exact(sub) <= treewidth_exact(g)

    @given(g=simple_graphs(), d=st.integers(min_value=0, max_value=2))
    @SETTINGS
    def test_greedy_scattered_really_scattered(self, g, d):
        chosen = greedy_scattered_set(g, d)
        assert is_scattered(g, chosen, d)

    @given(g=simple_graphs(), d=st.integers(min_value=0, max_value=2))
    @SETTINGS
    def test_scattered_iff_independent_in_power(self, g, d):
        chosen = greedy_scattered_set(g, d)
        p = power_graph(g, 2 * d)
        for i, u in enumerate(chosen):
            for v in chosen[i + 1:]:
                assert not p.has_edge(u, v)

    @given(a=digraphs())
    @SETTINGS
    def test_gaifman_degree_bounds_facts(self, a):
        g = gaifman_graph(a)
        assert g.num_vertices() == a.size()
        # each binary fact contributes at most one Gaifman edge
        assert g.num_edges() <= a.num_facts()


class TestSerializationProperty:
    @given(a=digraphs())
    @SETTINGS
    def test_json_round_trip(self, a):
        assert structure_from_json(structure_to_json(a)) == a
