"""Nested-undo QuickXplain against the from-scratch algorithm it replaced.

:func:`~repro.solver.minimal_conflict` runs every consistency probe on
one network: a probe pushes only the facts the recursion just moved
into the base, and rolls them back when its recursion returns.  The
reference below is the algorithm it replaced, kept whole: every probe
is one from-scratch :func:`~repro.solver.is_consistent` over the probe's
whole fact set.  Path-consistency closure is unique, so on any fact
list the two must agree exactly: the same conflict tuple (members and
order), the same number of consistency checks, and a result
:func:`~repro.solver.verify_conflict` accepts.  The fact lists come
from generated worlds with planted contradictions and from dense random
kinds over a few objects.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.assertions.assertion import Assertion
from repro.errors import AssertionSpecError
from repro.obs.metrics import AnalysisCounters
from repro.solver import is_consistent, minimal_conflict, verify_conflict
from repro.workloads.generator import (
    conflict_seeded_config,
    generate_schema_pair,
)

from tests.solver.conftest import triple_fact, truth_facts
from tests.solver.test_properties import random_fact_lists


def reference_minimal_conflict(
    facts: list[Assertion],
    *,
    background: list[Assertion] = (),
    counters: AnalysisCounters | None = None,
) -> tuple[Assertion, ...]:
    """QuickXplain with one from-scratch closure per probe."""
    facts = list(facts)
    background = list(background)
    if is_consistent(background + facts, counters=counters):
        raise AssertionSpecError(
            "cannot minimize a conflict: the facts are consistent"
        )
    conflict = tuple(
        _reference_qx(background, len(background) > 1, facts, counters)
    )
    if counters is not None:
        counters.solver_conflicts_minimized += 1
    return conflict


def _reference_qx(base, delta_nonempty, candidates, counters):
    if delta_nonempty and not is_consistent(base, counters=counters):
        return []
    if len(candidates) == 1:
        return list(candidates)
    half = len(candidates) // 2
    left, right = candidates[:half], candidates[half:]
    in_right = _reference_qx(base + left, bool(left), right, counters)
    in_left = _reference_qx(base + in_right, bool(in_right), left, counters)
    return in_left + in_right


def assert_same_answer(facts, background):
    """Both algorithms give one tuple, one check count, or both refuse."""
    expected_counters = AnalysisCounters()
    counters = AnalysisCounters()
    try:
        expected = reference_minimal_conflict(
            facts, background=background, counters=expected_counters
        )
    except AssertionSpecError:
        with pytest.raises(AssertionSpecError):
            minimal_conflict(facts, background=background, counters=counters)
        assert counters.solver_consistency_checks == 1
        return None
    conflict = minimal_conflict(
        facts, background=background, counters=counters
    )
    assert conflict == expected
    assert (
        counters.solver_consistency_checks
        == expected_counters.solver_consistency_checks
    )
    assert counters.solver_conflicts_minimized == 1
    # probe steps are solver work, never incremental-closure work
    assert counters.propagation_steps == 0
    assert verify_conflict(conflict, background=background)
    return conflict


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    concepts=st.integers(14, 80),
    contradictions=st.integers(1, 2),
    data=st.data(),
)
def test_nested_undo_matches_from_scratch_quickxplain(
    seed, concepts, contradictions, data
):
    pair = generate_schema_pair(
        conflict_seeded_config(
            seed, contradictions=contradictions, concepts=concepts
        )
    )
    planted = [
        triple_fact(triple)
        for each in pair.contradictions
        for triple in each.all_facts
    ]
    others = [fact for fact in truth_facts(pair) if fact not in planted]
    # every planted triangle, so the list is inconsistent, plus a random
    # subset of the other true facts, in a random order
    kept = data.draw(
        st.lists(st.booleans(), min_size=len(others), max_size=len(others)),
        label="kept",
    )
    chosen = [fact for fact, keep in zip(others, kept) if keep] + planted
    ordered = data.draw(st.permutations(chosen), label="order")
    split = data.draw(st.integers(0, 3), label="background")
    assert assert_same_answer(ordered[split:], ordered[:split]) is not None


@settings(max_examples=200, deadline=None)
@given(facts=random_fact_lists(), data=st.data())
def test_nested_undo_matches_on_random_fact_lists(facts, data):
    # dense random kinds over a few objects: often inconsistent, often
    # with several overlapping minimal sets, so the tuple's order counts
    split = data.draw(st.integers(0, min(3, len(facts))), label="background")
    assert_same_answer(facts[split:], facts[:split])


@pytest.fixture
def planted():
    pair = generate_schema_pair(conflict_seeded_config(11, contradictions=2))
    triangles = [
        [triple_fact(triple) for triple in each.all_facts]
        for each in pair.contradictions
    ]
    return truth_facts(pair), triangles


def test_inconsistent_background(planted):
    truth, (triangle, _other) = planted
    assert assert_same_answer(truth[:8], triangle) == ()


def test_no_facts_at_all(planted):
    _truth, (triangle, _other) = planted
    assert assert_same_answer([], triangle) == ()


def test_one_fact_background(planted):
    truth, (triangle, other) = planted
    new, *rest = triangle
    conflict = assert_same_answer(truth + rest + other[1:], [new])
    assert conflict and new not in conflict


def test_consistent_facts_are_refused_by_both(planted):
    truth, _triangles = planted
    assert assert_same_answer(truth, []) is None
