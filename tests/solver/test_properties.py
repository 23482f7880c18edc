"""Property tests: the batch solver against the incremental-closure oracle.

Three properties pin the subsystem's contract:

* on conflict-free generated workloads the solver's fixpoint (derived
  assertions *and* narrowed feasible sets) equals what the network
  derives incrementally — same monotone revision operator, same unique
  fixpoint;
* on conflict-seeded workloads every planted contradiction is caught,
  and the minimal conflict sets the solver reports really are both
  sufficient and minimal (``verify_conflict`` re-checks both halves);
* on random small fact lists, same-pair clashes included, the batch
  engine agrees with the independent naive fixpoint
  (:func:`~repro.baselines.naive_closure`), which shares no code with the
  network the engine now runs on.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import AssertionKind
from repro.baselines import (
    closure_oracle,
    derived_keys,
    naive_closure,
    objects_of,
)
from repro.ecr.schema import ObjectRef
from repro.errors import ConsistencyFailure
from repro.solver import (
    ConstraintSolver,
    minimal_conflict,
    propagate,
    verify_conflict,
)
from repro.workloads.generator import (
    GeneratorConfig,
    conflict_seeded_config,
    generate_schema_pair,
)

from tests.solver.conftest import triple_fact, truth_facts

# equal + contain + overlap rates must sum to <= 1 (GeneratorConfig checks)
conflict_free_configs = st.builds(
    GeneratorConfig,
    seed=st.integers(0, 10_000),
    concepts=st.integers(6, 16),
    overlap=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    equal_rate=st.sampled_from([0.3, 0.5, 0.7]),
    contain_rate=st.sampled_from([0.0, 0.2]),
    overlap_rate=st.just(0.1),
)


@settings(max_examples=25, deadline=None)
@given(config=conflict_free_configs)
def test_solver_fixpoint_equals_incremental_closure(config):
    facts = truth_facts(generate_schema_pair(config))
    if not facts:
        return  # overlap rounded to zero shared concepts: nothing to say
    solution = ConstraintSolver(facts).solve()
    oracle = closure_oracle(objects_of(facts), facts)
    assert oracle.consistent
    assert derived_keys(
        {a.pair: a for a in solution.derived}
    ) == derived_keys(oracle.derived)
    assert solution.feasible == oracle.feasible


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    contradictions=st.integers(1, 3),
)
def test_planted_contradictions_are_caught_with_minimal_sets(
    seed, contradictions
):
    pair = generate_schema_pair(
        conflict_seeded_config(seed, contradictions=contradictions)
    )
    assert len(pair.contradictions) == contradictions
    base_facts = truth_facts(pair)
    # contradictions are independent: verify each against the true facts
    for planted in pair.contradictions:
        extras = [triple_fact(triple) for triple in planted.extras]
        facts = base_facts + extras
        solver = ConstraintSolver(facts)
        with pytest.raises(ConsistencyFailure) as exc:
            solver.solve()
        conflict = exc.value.conflict
        assert verify_conflict(conflict)
        # the oracle agrees something is wrong on the same input
        oracle = closure_oracle(objects_of(facts), facts)
        assert not oracle.consistent


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_minimal_sets_match_the_planted_triangles(seed):
    pair = generate_schema_pair(conflict_seeded_config(seed, contradictions=1))
    (planted,) = pair.contradictions
    triangle = [triple_fact(triple) for triple in planted.all_facts]
    # the planted triangle alone is a minimal inconsistent set by design
    assert verify_conflict(triangle)
    assert set(minimal_conflict(triangle)) == set(triangle)


@st.composite
def random_fact_lists(draw):
    """Facts over 3-7 objects, one per pair, sometimes with a restatement.

    The restatement repeats a drawn pair in either orientation with any
    kind, so it may agree with that pair's fact (same relation) or clash.
    """
    count = draw(st.integers(3, 7))
    objects = [ObjectRef(f"s{index % 2}", f"O{index}") for index in range(count)]
    pairs = st.tuples(st.integers(0, count - 1), st.integers(0, count - 1))
    drawn = draw(
        st.lists(
            st.tuples(
                pairs.filter(lambda p: p[0] != p[1]),
                st.sampled_from(AssertionKind),
            ),
            min_size=1,
            max_size=12,
            unique_by=lambda entry: frozenset(entry[0]),
        )
    )
    facts = [Assertion(objects[i], objects[j], kind) for (i, j), kind in drawn]
    if draw(st.booleans()):
        again = draw(st.sampled_from(facts))
        first, second = again.first, again.second
        if draw(st.booleans()):
            first, second = second, first
        facts.insert(
            draw(st.integers(0, len(facts))),
            Assertion(first, second, draw(st.sampled_from(AssertionKind))),
        )
    return facts


@settings(max_examples=300, deadline=None)
@given(facts=random_fact_lists())
def test_batch_engine_agrees_with_the_naive_fixpoint(facts):
    outcome = propagate(facts)
    naive = naive_closure(objects_of(facts), facts)
    assert (outcome.culprit is None) == (naive is not None)
    if naive is None:
        return
    table, derived = naive
    assert outcome.domains == table
    solution = ConstraintSolver(facts).solve()
    assert derived_keys({a.pair: a for a in solution.derived}) == derived
