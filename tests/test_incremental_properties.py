"""Property-based tests (hypothesis) for the incremental engine.

**Round trip**: ``apply_delta`` followed by the delta's
:meth:`~repro.incremental.delta.Delta.inverse` restores the original
structure *and* its fingerprint, on randomized edit scripts over
randomized structures.
"""

import random

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.incremental import Delta, apply_delta
from repro.structures import Structure, Vocabulary

GRAPH = Vocabulary({"E": 2})

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def interpret_script(structure, script):
    """Run a raw edit script, interpreting each step modulo the current
    state; invalid steps are skipped.  Returns (final, applied deltas)."""
    current = structure
    applied = []
    for choice, x, y in script:
        universe = sorted(current.universe)
        a = universe[x % len(universe)]
        b = universe[y % len(universe)]
        if choice % 3 == 0 and not current.has_fact("E", (a, b)):
            delta = Delta(add_facts=[("E", (a, b))])
        elif choice % 3 == 1 and current.has_fact("E", (a, b)):
            delta = Delta(remove_facts=[("E", (a, b))])
        elif choice % 3 == 2:
            new = max(e for e in universe if isinstance(e, int)) + 1
            delta = Delta(add_elements=(new,), add_facts=[("E", (a, new))])
        else:
            continue
        current, _ = apply_delta(current, delta)
        applied.append(delta)
    return current, applied


def seed_structure(n, density_seed):
    rng = random.Random(density_seed)
    facts = [(i, (i + 1) % n) for i in range(n)]
    for _ in range(n // 2):
        facts.append((rng.randrange(n), rng.randrange(n)))
    return Structure(GRAPH, range(n), {"E": sorted(set(facts))})


scripts = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=12,
)


@SETTINGS
@given(
    n=st.integers(min_value=3, max_value=16),
    density_seed=st.integers(min_value=0, max_value=1000),
    script=scripts,
)
def test_apply_then_inverse_round_trips(n, density_seed, script):
    start = seed_structure(n, density_seed)
    original_fp = start.fingerprint()
    current, applied = interpret_script(start, script)
    for delta in reversed(applied):
        current, _ = apply_delta(current, delta.inverse())
    assert current == start
    assert current.fingerprint() == original_fp
