"""The batch engine: fixpoints, derived assertions, what-if analysis."""

import pytest

from repro.assertions.assertion import Assertion, ordered_pair
from repro.assertions.composition import ALL_RELATIONS
from repro.assertions.kinds import AssertionKind, Relation, Source
from repro.assertions.network import AssertionNetwork, _UndoLog
from repro.baselines import derived_keys, naive_closure, objects_of
from repro.equivalence.session import AnalysisSession
from repro.errors import AssertionSpecError, ConsistencyFailure
from repro.obs.metrics import AnalysisCounters
from repro.solver import (
    ConstraintSolver,
    explain_assertion,
    propagate,
    verify_conflict,
)
from repro.solver.engine import derived_from
from repro.solver.explain import _seeds
from repro.workloads.generator import GeneratorConfig, generate_schema_pair

from tests.solver.conftest import A, B, C, T, fact, truth_facts


class TestPropagate:
    def test_seeds_are_singletons(self, chain_facts):
        outcome = propagate(chain_facts)
        assert outcome.culprit is None
        assert outcome.domains[ordered_pair(A, B)] == {Relation.EQ}

    def test_chain_derives_transitive_edge(self, chain_facts):
        outcome = propagate(chain_facts)
        # Alpha = Beta and Beta ⊂ Gamma pin Alpha ⊂ Gamma
        pair = ordered_pair(A, C)
        oriented = outcome.domains[pair]
        assert len(oriented) == 1

    def test_contradiction_names_a_culprit(self, triangle_facts):
        outcome = propagate(triangle_facts)
        assert outcome.culprit is not None
        assert not outcome.domains[outcome.culprit]

    def test_same_pair_seed_clash_is_immediate(self):
        facts = [
            fact(A, B, AssertionKind.EQUALS),
            fact(A, B, AssertionKind.DISJOINT_INTEGRABLE),
        ]
        outcome = propagate(facts)
        assert outcome.culprit == ordered_pair(A, B)
        assert outcome.steps == 0

    def test_self_pair_is_a_spec_error(self):
        with pytest.raises(AssertionSpecError):
            propagate([fact(A, A, AssertionKind.EQUALS)])

    def test_counters_accumulate_steps(self, chain_facts):
        counters = AnalysisCounters()
        outcome = propagate(chain_facts, counters=counters)
        assert counters.solver_propagation_steps == outcome.steps > 0

    def test_no_universal_domains_are_stored(self, chain_facts):
        outcome = propagate(chain_facts)
        assert ALL_RELATIONS not in outcome.domains.values()

    def test_steps_count_as_solver_steps_only(self, triangle_facts):
        # record_evolution adds both counters: the batch run must not
        # also show up as incremental-closure work
        counters = AnalysisCounters()
        outcome = propagate(triangle_facts, counters=counters)
        assert counters.propagation_steps == 0
        assert counters.solver_propagation_steps == outcome.steps > 0

    def test_derived_culprit_is_a_canonical_pair(self, triangle_facts):
        outcome = propagate(list(reversed(triangle_facts)))
        assert outcome.culprit == ordered_pair(*outcome.culprit)
        assert outcome.domains[outcome.culprit] == frozenset()

    def test_reversed_same_pair_clash_names_the_canonical_pair(self):
        facts = [
            fact(B, A, AssertionKind.CONTAINS),
            fact(A, B, AssertionKind.CONTAINS),
        ]
        outcome = propagate(facts)
        assert outcome.culprit == ordered_pair(A, B)
        assert outcome.domains[outcome.culprit] == frozenset()
        assert outcome.steps == 0


class TestBatchNetworkReads:
    """What a network closed by one batch push reports.

    Nothing is specified on it, so every pair it holds at one relation
    reads as derived: the facts themselves, with no supports (nothing was
    composed to pin them), and what propagation pinned, with the support
    of its last narrowing.  The solver reads none of that; it answers
    from :meth:`~AssertionNetwork.feasible_table` alone.
    """

    @staticmethod
    def closed(facts) -> AssertionNetwork:
        network = AssertionNetwork()
        for each in facts:
            network.add_object(each.first)
            network.add_object(each.second)
        assert network._push(_UndoLog(), _seeds(network, facts)) is None
        return network

    def test_every_singleton_pair_reads_as_derived(self, chain_facts):
        network = self.closed(chain_facts)
        assert network.specified_assertions() == []
        derived = {a.pair: a for a in network.derived_assertions()}
        assert set(derived) == {
            ordered_pair(A, B), ordered_pair(B, C), ordered_pair(A, C)
        }
        assert {a.source for a in derived.values()} == {Source.DERIVED}
        assert derived[ordered_pair(A, B)].supports == ()
        assert derived[ordered_pair(B, C)].supports == ()
        assert set(derived[ordered_pair(A, C)].supports) == {
            ordered_pair(A, B), ordered_pair(B, C)
        }
        # the solver's own reading of the table agrees pair for pair
        assert derived_keys(derived) == derived_keys(
            derived_from(network.feasible_table(), set())
        )
        assert network.assertion_for(C, A) == derived[
            ordered_pair(A, C)
        ].oriented(C, A)

    def test_the_solver_reads_no_derived_assertion(
        self, chain_facts, monkeypatch
    ):
        def unread(*args, **kwargs):
            raise AssertionError("the solver read a derived assertion")

        table = self.closed(chain_facts).feasible_table()
        network = AssertionNetwork()
        for ref in (A, B, C, T):
            network.add_object(ref)
        for each in chain_facts:
            network.specify(each.first, each.second, each.kind)
        for name in (
            "assertion_for", "derived_assertions", "containment_assertions",
            "all_assertions", "explain",
        ):
            monkeypatch.setattr(AssertionNetwork, name, unread)
        assert propagate(chain_facts).domains == table
        assert explain_assertion(network, T, A, AssertionKind.EQUALS).consistent
        assert not explain_assertion(
            network, A, C, AssertionKind.DISJOINT_NONINTEGRABLE
        ).consistent
        assert ConstraintSolver.from_network(network).solve().derived


def finished_sitting_network() -> AssertionNetwork:
    """A 114-class generated world after a whole sitting of true answers."""
    pair = generate_schema_pair(
        GeneratorConfig(seed=1000, concepts=34, overlap=0.6, category_rate=1.0)
    )
    assert len(pair.first) + len(pair.second) == 114
    session = AnalysisSession([pair.first, pair.second])
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    network = session.object_network
    for candidate in session.candidate_pairs(
        pair.first.name, pair.second.name, include_zero=True
    ):
        if network.is_undetermined(candidate.first, candidate.second):
            session.specify(
                candidate.first,
                candidate.second,
                pair.truth.assertion_between(candidate.first, candidate.second),
            )
    return network


def test_batch_closure_of_a_finished_sitting_equals_the_network():
    network = finished_sitting_network()
    facts = network.specified_assertions()
    assert len(facts) > 500
    outcome = propagate(facts)
    assert outcome.culprit is None
    assert outcome.domains == network.feasible_table()
    solution = ConstraintSolver.from_network(network).solve()
    assert derived_keys({a.pair: a for a in solution.derived}) == (
        derived_keys({a.pair: a for a in network.derived_assertions()})
    )


class TestConstraintSolver:
    def test_solution_matches_oracle(self, chain_facts):
        solution = ConstraintSolver(chain_facts).solve()
        table, derived = naive_closure(objects_of(chain_facts), chain_facts)
        assert derived_keys({a.pair: a for a in solution.derived}) == derived
        assert solution.feasible == table

    def test_derived_are_marked_derived(self, chain_facts):
        solution = ConstraintSolver(chain_facts).solve()
        assert solution.derived
        assert all(a.source is Source.DERIVED for a in solution.derived)

    def test_feasible_between_orients(self, chain_facts):
        solution = ConstraintSolver(chain_facts).solve()
        forward = solution.feasible_between(A, C)
        backward = solution.feasible_between(C, A)
        assert forward == {Relation.PP}
        assert backward == {Relation.PPI}

    def test_feasible_between_self_pair_is_eq(self, chain_facts):
        solution = ConstraintSolver(chain_facts).solve()
        assert solution.feasible_between(A, A) == {Relation.EQ}

    def test_unconstrained_pair_is_universal(self, chain_facts):
        solution = ConstraintSolver(chain_facts).solve()
        assert solution.feasible_between(A, T) == ALL_RELATIONS

    def test_inconsistency_raises_with_minimal_conflict(self, triangle_facts):
        solver = ConstraintSolver(triangle_facts)
        with pytest.raises(ConsistencyFailure) as exc:
            solver.solve()
        failure = exc.value
        assert set(failure.conflict) == set(triangle_facts)
        assert verify_conflict(failure.conflict)
        assert failure.subject is not None

    def test_check_is_nondestructive(self, chain_facts):
        solver = ConstraintSolver(chain_facts)
        assert solver.check()
        assert not solver.check([fact(A, C, AssertionKind.DISJOINT_INTEGRABLE)])
        # the hypothetical did not stick
        assert solver.check()

    def test_counters_track_runs(self, chain_facts):
        counters = AnalysisCounters()
        solver = ConstraintSolver(chain_facts, counters=counters)
        solver.solve()
        assert counters.solver_runs == 1
        solver.check()
        assert counters.solver_consistency_checks == 1

    def test_from_network_matches_network_closure(self):
        network = AssertionNetwork(counters=AnalysisCounters())
        for ref in (A, B, C, T):
            network.add_object(ref)
        network.specify(A, B, AssertionKind.EQUALS)
        network.specify(B, C, AssertionKind.CONTAINED_IN)
        solution = ConstraintSolver.from_network(network).solve()
        assert derived_keys({a.pair: a for a in solution.derived}) == (
            derived_keys(
                {a.pair: a for a in network.derived_assertions()}
            )
        )
        assert solution.feasible == dict(network.feasible_table())

    def test_generated_workload_matches_oracle(self):
        pair = generate_schema_pair(
            GeneratorConfig(seed=17, concepts=12, overlap=0.6)
        )
        facts = truth_facts(pair)
        solution = ConstraintSolver(facts).solve()
        naive = naive_closure(objects_of(facts), facts)
        assert naive is not None
        table, derived = naive
        assert derived_keys({a.pair: a for a in solution.derived}) == derived
        assert solution.feasible == table


class TestExplainAssertion:
    @pytest.fixture
    def network(self):
        network = AssertionNetwork(counters=AnalysisCounters())
        for ref in (A, B, C, T):
            network.add_object(ref)
        network.specify(A, B, AssertionKind.EQUALS)
        network.specify(B, C, AssertionKind.CONTAINED_IN)
        return network

    def test_consistent_hypothesis_lists_consequences(self, network):
        explanation = explain_assertion(
            network, T, C, AssertionKind.CONTAINED_IN
        )
        assert explanation.consistent
        assert explanation.conflict == ()
        assert explanation.repairs() == []

    def test_consequences_show_new_derivations(self, network):
        # T = A forces T = B and T ⊂ C by composition
        explanation = explain_assertion(network, T, A, AssertionKind.EQUALS)
        assert explanation.consistent
        derived_pairs = {a.pair for a in explanation.consequences}
        assert ordered_pair(T, B) in derived_pairs
        assert ordered_pair(T, C) in derived_pairs

    def test_conflicting_hypothesis_carries_minimal_set(self, network):
        explanation = explain_assertion(
            network, A, C, AssertionKind.DISJOINT_NONINTEGRABLE
        )
        assert not explanation.consistent
        assert verify_conflict(
            explanation.conflict,
            background=[
                Assertion(A, C, AssertionKind.DISJOINT_NONINTEGRABLE)
            ],
        )
        assert explanation.repairs()

    def test_network_is_not_mutated(self, network):
        before = network.specified_assertions()
        explain_assertion(network, A, C, AssertionKind.DISJOINT_NONINTEGRABLE)
        explain_assertion(network, T, A, AssertionKind.EQUALS)
        assert network.specified_assertions() == before

    def test_kind_codes_are_accepted(self, network):
        explanation = explain_assertion(network, T, A, 1)  # code 1 = equals
        assert explanation.kind is AssertionKind.EQUALS

    def test_self_pair_is_rejected(self, network):
        with pytest.raises(AssertionSpecError):
            explain_assertion(network, A, A, AssertionKind.EQUALS)

    def test_to_wire_shape(self, network):
        wire = explain_assertion(
            network, A, C, AssertionKind.DISJOINT_NONINTEGRABLE
        ).to_wire()
        assert wire["consistent"] is False
        assert wire["kind"] == "DISJOINT_NONINTEGRABLE"
        assert wire["conflict_set"]
        assert wire["repairs"]
        for member in wire["conflict_set"]:
            assert {"first", "second", "kind"} <= member.keys()
