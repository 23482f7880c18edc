"""QuickXplain minimal conflict sets: sufficiency, minimality, background."""

import pytest

from repro.assertions.kinds import AssertionKind
from repro.errors import AssertionSpecError
from repro.obs.metrics import AnalysisCounters
from repro.solver import is_consistent, minimal_conflict, verify_conflict

from tests.solver.conftest import A, B, C, T, fact


class TestIsConsistent:
    def test_consistent(self, chain_facts):
        assert is_consistent(chain_facts)

    def test_inconsistent(self, triangle_facts):
        assert not is_consistent(triangle_facts)

    def test_counter_bumped(self, chain_facts):
        counters = AnalysisCounters()
        is_consistent(chain_facts, counters=counters)
        assert counters.solver_consistency_checks == 1


class TestMinimalConflict:
    def test_triangle_is_its_own_minimal_set(self, triangle_facts):
        conflict = minimal_conflict(triangle_facts)
        assert set(conflict) == set(triangle_facts)
        assert verify_conflict(conflict)

    def test_irrelevant_facts_are_dropped(self, triangle_facts):
        padded = [fact(B, C, AssertionKind.CONTAINED_IN)] + triangle_facts
        conflict = minimal_conflict(padded)
        assert set(conflict) == set(triangle_facts)

    def test_background_members_are_excluded(self, triangle_facts):
        new, *rest = triangle_facts
        conflict = minimal_conflict(rest, background=[new])
        assert set(conflict) == set(rest)
        assert new not in conflict
        assert verify_conflict(conflict, background=[new])

    def test_consistent_facts_cannot_be_minimized(self, chain_facts):
        with pytest.raises(AssertionSpecError):
            minimal_conflict(chain_facts)

    def test_counters(self, triangle_facts):
        counters = AnalysisCounters()
        minimal_conflict(triangle_facts, counters=counters)
        assert counters.solver_conflicts_minimized == 1
        assert counters.solver_consistency_checks > 1

    def test_two_member_conflict(self):
        # A = B clashing directly with A ∥ B: the pairless case
        facts = [
            fact(A, B, AssertionKind.EQUALS),
            fact(A, B, AssertionKind.DISJOINT_INTEGRABLE),
        ]
        conflict = minimal_conflict(facts)
        assert set(conflict) == set(facts)
        assert verify_conflict(conflict)


class TestVerifyConflict:
    def test_accepts_true_minimal_set(self, triangle_facts):
        assert verify_conflict(triangle_facts)

    def test_rejects_padded_set(self, triangle_facts):
        padded = triangle_facts + [fact(C, T, AssertionKind.CONTAINS)]
        assert not verify_conflict(padded)

    def test_rejects_insufficient_set(self, triangle_facts):
        assert not verify_conflict(triangle_facts[:2])

    def test_rejects_empty_set_without_background(self):
        assert not verify_conflict([])

    def test_accepts_inconsistent_background_alone(self, triangle_facts):
        # all blame already sits in the background: () is the right answer
        assert verify_conflict([], background=triangle_facts)


class TestInconsistentBackground:
    """QX(B, B, C): an inconsistent background needs no facts at all."""

    @pytest.fixture
    def background(self):
        # A = B and B = C force A = C, which A ∥ C contradicts
        return [
            fact(A, B, AssertionKind.EQUALS),
            fact(B, C, AssertionKind.EQUALS),
            fact(A, C, AssertionKind.DISJOINT_INTEGRABLE),
        ]

    def test_no_fact_is_blamed(self, background):
        facts = [fact(C, T, AssertionKind.EQUALS), fact(A, T, AssertionKind.EQUALS)]
        conflict = minimal_conflict(facts, background=background)
        assert conflict == ()
        assert verify_conflict(conflict, background=background)

    def test_no_facts_at_all(self, background):
        assert minimal_conflict([], background=background) == ()

    def test_one_fact_background_is_not_probed(self, triangle_facts):
        # the probe counts QuickXplain took before the background probe
        new, *rest = triangle_facts
        padded = [fact(B, C, AssertionKind.CONTAINED_IN)] + rest
        for facts, checks in ((rest, 3), (padded, 5)):
            counters = AnalysisCounters()
            minimal_conflict(facts, background=[new], counters=counters)
            assert counters.solver_consistency_checks == checks
