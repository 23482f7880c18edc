"""Tests for the assertion constraint network."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.assertions.assertion import ordered_pair
from repro.assertions.composition import (
    ALL_MASK,
    ALL_RELATIONS,
    compose_sets,
    converse,
    converse_set,
)
from repro.assertions.kinds import AssertionKind, Relation, Source
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import ObjectRef
from repro.errors import AssertionSpecError, ConflictError, SchemaError


def refs(*names):
    return [ObjectRef("s", name) for name in names]


@pytest.fixture
def triangle():
    network = AssertionNetwork()
    a, b, c = refs("A", "B", "C")
    for ref in (a, b, c):
        network.add_object(ref)
    return network, a, b, c


class TestSpecify:
    def test_basic(self, triangle):
        network, a, b, c = triangle
        assertion = network.specify(a, b, AssertionKind.EQUALS)
        assert assertion.source is Source.DDA
        assert network.assertion_for(a, b).kind is AssertionKind.EQUALS

    def test_int_code_accepted(self, triangle):
        network, a, b, _ = triangle
        network.specify(a, b, 2)
        assert network.assertion_for(a, b).kind is AssertionKind.CONTAINED_IN

    def test_orientation(self, triangle):
        network, a, b, _ = triangle
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        assert network.assertion_for(b, a).kind is AssertionKind.CONTAINS

    def test_self_assertion_rejected(self, triangle):
        network, a, _, _ = triangle
        with pytest.raises(AssertionSpecError):
            network.specify(a, a, 1)

    def test_unknown_object_rejected(self, triangle):
        network, a, _, _ = triangle
        with pytest.raises(AssertionSpecError):
            network.specify(a, ObjectRef("s", "Ghost"), 1)

    def test_restating_is_noop(self, triangle):
        network, a, b, _ = triangle
        network.specify(a, b, 2)
        network.specify(a, b, 2)
        assert len(network.specified_assertions()) == 1

    def test_restating_converse_orientation_is_noop(self, triangle):
        network, a, b, _ = triangle
        network.specify(a, b, 2)
        network.specify(b, a, 3)  # same assertion, read the other way
        assert len(network.specified_assertions()) == 1

    def test_changing_requires_respecify(self, triangle):
        network, a, b, _ = triangle
        network.specify(a, b, 2)
        with pytest.raises(AssertionSpecError):
            network.specify(a, b, 1)
        network.respecify(a, b, 1)
        assert network.assertion_for(a, b).kind is AssertionKind.EQUALS


class TestDerivation:
    def test_paper_subset_chain(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.CONTAINED_IN)
        derived = network.assertion_for(a, c)
        assert derived.kind is AssertionKind.CONTAINED_IN
        assert derived.source is Source.DERIVED

    def test_equals_propagates_everything(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, AssertionKind.EQUALS)
        network.specify(b, c, AssertionKind.MAY_BE)
        derived = network.assertion_for(a, c)
        assert derived.kind is AssertionKind.MAY_BE
        assert not derived.integrability_decided

    def test_subset_disjoint_derives_disjoint(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.DISJOINT_NONINTEGRABLE)
        derived = network.assertion_for(a, c)
        assert derived.relation is Relation.DR
        assert not derived.integrability_decided

    def test_no_overeager_derivation(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, AssertionKind.MAY_BE)
        network.specify(b, c, AssertionKind.MAY_BE)
        assert network.assertion_for(a, c) is None
        assert network.is_undetermined(a, c)

    def test_feasible_narrows_without_determining(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, AssertionKind.CONTAINS)  # a ⊃ b
        network.specify(b, c, AssertionKind.MAY_BE)
        feasible = network.feasible(a, c)
        assert feasible == frozenset({Relation.PO, Relation.PPI})

    def test_derived_integrability_can_be_decided_later(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.DISJOINT_NONINTEGRABLE)
        # the DDA later confirms the derived disjointness as integrable
        confirmed = network.specify(a, c, AssertionKind.DISJOINT_INTEGRABLE)
        assert confirmed.integrability_decided

    def test_explain_returns_specified_chain(self, triangle):
        network, a, b, c = triangle
        first = network.specify(a, b, 2)
        second = network.specify(b, c, 2)
        chain = network.explain(a, c)
        assert set(x.pair for x in chain) == {first.pair, second.pair}


class TestConflicts:
    def test_direct_contradiction(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, 2)
        network.specify(b, c, 2)
        with pytest.raises(ConflictError) as excinfo:
            network.specify(a, c, 0)
        report = excinfo.value.report
        assert report.new.kind is AssertionKind.DISJOINT_NONINTEGRABLE
        assert report.current is not None
        assert report.current.kind.relation is Relation.PP
        assert len(report.chain) == 2

    def test_paper_screen9_example_text(self):
        # Employee ≡ Person, Person ≡ Worker ⇒ Worker ⊂ Employee must fail
        network = AssertionNetwork()
        emp, per, wor = (
            ObjectRef("x", "Employee"),
            ObjectRef("y", "Person"),
            ObjectRef("z", "Worker"),
        )
        for ref in (emp, per, wor):
            network.add_object(ref)
        network.specify(emp, per, 1)
        network.specify(per, wor, 1)
        with pytest.raises(ConflictError):
            network.specify(wor, emp, 2)

    def test_state_unchanged_after_conflict(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, 2)
        network.specify(b, c, 2)
        before = network.feasible(a, c)
        with pytest.raises(ConflictError):
            network.specify(a, c, 0)
        assert network.feasible(a, c) == before
        assert len(network.specified_assertions()) == 2

    def test_propagation_conflict_on_third_pair(self):
        # a ⊂ b, c ⊃ b, then a disjoint c contradicts a ⊂ b ⊂ c.
        network = AssertionNetwork()
        a, b, c = refs("A", "B", "C")
        for ref in (a, b, c):
            network.add_object(ref)
        network.specify(a, b, 2)
        network.specify(b, c, 2)
        with pytest.raises(ConflictError):
            network.specify(c, a, AssertionKind.CONTAINED_IN)  # c ⊂ a


class TestRetraction:
    def test_retract_removes_derivations(self, triangle):
        network, a, b, c = triangle
        network.specify(a, b, 2)
        network.specify(b, c, 2)
        assert network.assertion_for(a, c) is not None
        network.retract(b, c)
        assert network.assertion_for(a, c) is None
        assert network.assertion_for(a, b) is not None

    def test_removed_node_is_universal_in_every_row(self):
        network = AssertionNetwork()
        a, b, c, d = refs("A", "B", "C", "D")
        for ref in (a, b, c, d):
            network.add_object(ref)
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.CONTAINED_IN)
        network.specify(b, d, AssertionKind.DISJOINT_INTEGRABLE)
        network.remove_object(b)
        node = network._ids[b]
        assert set(network._rows[node]) == {ALL_MASK}
        assert {row[node] for row in network._rows} == {ALL_MASK}

    def test_a_removed_node_reads_no_derived_assertion(self):
        network = AssertionNetwork()
        a, b, c, d, e = refs("A", "B", "C", "D", "E")
        for ref in (a, b, c, d, e):
            network.add_object(ref)
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.CONTAINED_IN)
        network.specify(c, d, AssertionKind.CONTAINED_IN)
        network.specify(b, e, AssertionKind.CONTAINED_IN)
        assert network.assertion_for(a, c).source is Source.DERIVED

        def pairs_at(ref):
            return [x for x in network.derived_assertions() if ref in x.pair]

        assert pairs_at(c)
        network.remove_object(c)
        assert pairs_at(c) == []
        for other in (a, b, d, e):
            assert network.assertion_for(c, other) is None
            assert network.assertion_for(other, c) is None
        # what never went through c survives the removal
        assert [x.pair for x in network.derived_assertions()] == [
            ordered_pair(a, e)
        ]
        network.add_object(c)
        assert pairs_at(c) == []
        assert network.assertion_for(a, c) is None
        network.specify(b, c, AssertionKind.CONTAINED_IN)
        derived = network.assertion_for(c, a)
        assert derived.kind is AssertionKind.CONTAINS
        assert set(derived.supports) == {ordered_pair(a, b), ordered_pair(b, c)}
        assert [x.pair for x in pairs_at(c)] == [ordered_pair(a, c)]

    def test_retract_unknown_pair(self, triangle):
        network, a, b, _ = triangle
        with pytest.raises(AssertionSpecError):
            network.retract(a, b)

    def test_respecify_after_conflict_resolution(self, triangle):
        # The Screen 9 repair: change the earlier assertion, retry the new.
        network, a, b, c = triangle
        network.specify(a, b, 2)
        network.specify(b, c, 2)
        with pytest.raises(ConflictError):
            network.specify(a, c, 0)
        network.respecify(a, b, 0)  # "all instructors are not grad students"
        network.specify(a, c, 0)  # now accepted
        assert network.assertion_for(a, c).kind.code == 0

    def test_refused_respecify_keeps_the_previous_assertion(self):
        from repro.baselines import state_payload_fingerprint
        from repro.ecr.builder import SchemaBuilder
        from repro.equivalence.session import AnalysisSession

        key = [("K", "char", True)]
        session = AnalysisSession(
            [
                SchemaBuilder("a").entity("A", attrs=key).entity("B", attrs=key).build(),
                SchemaBuilder("b").entity("C", attrs=key).build(),
            ]
        )
        session.specify("a.A", "b.C", 2)
        session.specify("a.B", "b.C", 1)
        session.specify("a.A", "a.B", 2)
        before = state_payload_fingerprint(session)
        with pytest.raises(ConflictError) as refused:
            session.respecify("b.C", "a.B", 0)
        assert refused.value.report.new.kind is AssertionKind.DISJOINT_NONINTEGRABLE
        kept = session.assertion_for("a.B", "b.C")
        assert (kept.kind, kept.source) == (AssertionKind.EQUALS, Source.DDA)
        assert state_payload_fingerprint(session) == before
        # what the refusal published replays to the same state
        session.kernel.checkout(session.kernel.head)
        assert state_payload_fingerprint(session) == before


def registration_state(network):
    return (
        network._ids,
        network._refs,
        network._rows,
        list(network._live),
        network._live_ranks(),
    )


registration_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(st.sampled_from("ABCDEFG"), min_size=1, max_size=5),
        ),
        st.tuples(st.just("remove"), st.sampled_from("ABCDEFG")),
        st.tuples(
            st.just("specify"),
            st.tuples(
                st.sampled_from("ABCDEFG"),
                st.sampled_from("ABCDEFG"),
                st.sampled_from([1, 2, 3, 4]),
            ),
        ),
    ),
    max_size=12,
)


class TestRegistration:
    def test_a_returning_object_keeps_its_old_id(self):
        network = AssertionNetwork()
        a, b, c = refs("A", "B", "C")
        network.add_objects([a, b, c])
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.remove_object(a)
        network.add_objects([c, a])
        assert network._ids[a] == 0
        assert network.objects() == [b, c, a]
        assert network._live_ranks() == [2, 0, 1]
        assert network._rows == [bytearray([ALL_MASK]) * 3] * 3

    def test_a_bad_ref_registers_nothing(self):
        network = AssertionNetwork()
        with pytest.raises(SchemaError):
            network.add_objects([ObjectRef("s", "A"), "no-dot"])
        assert registration_state(network) == ({}, [], [], [], [])

    @settings(deadline=None, max_examples=100)
    @given(registration_steps)
    def test_one_batch_equals_one_object_at_a_time(self, steps):
        """Registering in batches builds the same network as one by one."""
        batched, single = AssertionNetwork(), AssertionNetwork()
        for action, argument in steps:
            outcomes = []
            for network in (batched, single):
                try:
                    if action == "add":
                        names = refs(*argument)
                        if network is batched:
                            network.add_objects(names)
                        else:
                            for ref in names:
                                network.add_object(ref)
                    elif action == "remove":
                        network.remove_object(*refs(argument))
                    else:
                        first, second, code = argument
                        network.specify(*refs(first, second), code)
                    outcomes.append(None)
                except (AssertionSpecError, ConflictError) as error:
                    outcomes.append(type(error))
            assert outcomes[0] == outcomes[1]
            assert registration_state(batched) == registration_state(single)
            ranks = batched._live_ranks()
            assert [ranks[node] for node in batched._live] == list(
                range(len(batched._live))
            )


class TestSeeding:
    def test_categories_seed_contained_in(self, sc4):
        network = AssertionNetwork()
        implicit = network.seed_schema(sc4)
        assert len(implicit) == 1
        assertion = implicit[0]
        assert assertion.kind is AssertionKind.CONTAINED_IN
        assert assertion.source is Source.IMPLICIT
        assert assertion.first.object_name == "Grad_student"

    def test_entity_disjointness_optional(self, sc1):
        plain = AssertionNetwork()
        plain.seed_schema(sc1)
        a = ObjectRef("sc1", "Student")
        b = ObjectRef("sc1", "Department")
        assert plain.assertion_for(a, b) is None
        seeded = AssertionNetwork()
        seeded.seed_schema(sc1, entity_disjointness=True)
        assert seeded.assertion_for(a, b).relation is Relation.DR


# -- model-based property test -------------------------------------------------

@st.composite
def consistent_worlds(draw):
    """Random non-empty subsets of a universe plus all their true relations."""
    count = draw(st.integers(3, 6))
    sets = [
        draw(st.frozensets(st.integers(0, 5), min_size=1)) for _ in range(count)
    ]
    return sets


def _actual_kind(a: frozenset, b: frozenset) -> AssertionKind:
    if a == b:
        return AssertionKind.EQUALS
    if a < b:
        return AssertionKind.CONTAINED_IN
    if a > b:
        return AssertionKind.CONTAINS
    if a & b:
        return AssertionKind.MAY_BE
    return AssertionKind.DISJOINT_INTEGRABLE


@settings(deadline=None, max_examples=60)
@given(consistent_worlds(), st.randoms(use_true_random=False))
def test_consistent_assertion_scripts_never_conflict(world, rng):
    """Feeding the true relations of actual sets can never raise a conflict,
    and every derived assertion must match the model's true relation."""
    network = AssertionNetwork()
    object_refs = [ObjectRef("w", f"S{i}") for i in range(len(world))]
    for ref in object_refs:
        network.add_object(ref)
    pairs = [
        (i, j)
        for i in range(len(world))
        for j in range(i + 1, len(world))
    ]
    rng.shuffle(pairs)
    for i, j in pairs[: len(pairs) * 2 // 3 + 1]:
        kind = _actual_kind(world[i], world[j])
        existing = network.assertion_for(object_refs[i], object_refs[j])
        if existing is not None and existing.source is Source.DERIVED:
            # the network already knows; re-specifying must agree, not raise
            network.specify(object_refs[i], object_refs[j], kind)
            continue
        network.specify(object_refs[i], object_refs[j], kind)
    for derived in network.derived_assertions():
        i = int(derived.first.object_name[1:])
        j = int(derived.second.object_name[1:])
        assert derived.relation is _actual_kind(world[i], world[j]).relation


class TestUnionCategorySeeding:
    def test_union_category_contributes_no_implicit_assertion(self):
        from repro.ecr.builder import SchemaBuilder

        schema = (
            SchemaBuilder("u")
            .entity("Car", attrs=[("Vin", "char", True)])
            .entity("Boat", attrs=[("Hull", "char", True)])
            .category("Amphibious", of=["Car", "Boat"])
            .build()
        )
        network = AssertionNetwork()
        implicit = network.seed_schema(schema)
        assert implicit == []
        amphibious = ObjectRef("u", "Amphibious")
        # the pair stays open: an amphibious vehicle need not be a car
        assert network.is_undetermined(amphibious, ObjectRef("u", "Car"))

    def test_single_parent_category_still_seeds(self):
        from repro.ecr.builder import SchemaBuilder

        schema = (
            SchemaBuilder("u")
            .entity("Car", attrs=[("Vin", "char", True)])
            .category("Sports_car", of="Car")
            .build()
        )
        network = AssertionNetwork()
        implicit = network.seed_schema(schema)
        assert len(implicit) == 1
        assert implicit[0].kind is AssertionKind.CONTAINED_IN


class TestDeepDerivationChains:
    def test_four_level_chain_explained_fully(self):
        network = AssertionNetwork()
        chain_refs = refs("L0", "L1", "L2", "L3", "L4")
        for ref in chain_refs:
            network.add_object(ref)
        for lower, upper in zip(chain_refs, chain_refs[1:]):
            network.specify(lower, upper, AssertionKind.CONTAINED_IN)
        derived = network.assertion_for(chain_refs[0], chain_refs[-1])
        assert derived is not None
        assert derived.kind is AssertionKind.CONTAINED_IN
        explanation = network.explain(chain_refs[0], chain_refs[-1])
        explained_pairs = {a.pair for a in explanation}
        expected_pairs = {
            ordered_pair(lower, upper)
            for lower, upper in zip(chain_refs, chain_refs[1:])
        }
        # every specified link of the chain participates in the derivation
        assert explained_pairs <= expected_pairs
        assert len(explained_pairs) >= 2

    def test_propagation_conflict_report_names_third_pair(self):
        network = AssertionNetwork()
        a, b, c = refs("A", "B", "C")
        for ref in (a, b, c):
            network.add_object(ref)
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.CONTAINED_IN)
        with pytest.raises(ConflictError) as excinfo:
            network.specify(c, a, AssertionKind.CONTAINED_IN)
        report = excinfo.value.report
        # the clash materialises away from (c, a) itself
        assert report.is_propagation_conflict or report.current is not None
        assert report.new.kind is AssertionKind.CONTAINED_IN
        text = str(report)
        assert "conflict" in text


# -- the closure against an independent oracle -----------------------------------

_VERBS = ("specify", "specify", "respecify", "retract", "remove", "add")


@st.composite
def closure_scripts(draw):
    """A world of 4-8 sets plus a script over them.

    A step's kind is the world's true relation (``None``) or a random
    code, so scripts both grow consistent networks and hit conflicts.
    """
    world = draw(consistent_worlds().filter(lambda sets: len(sets) >= 4))
    world += [
        draw(st.frozensets(st.integers(0, 5), min_size=1))
        for _ in range(draw(st.integers(0, 8 - len(world))))
    ]
    step = st.tuples(
        st.sampled_from(_VERBS),
        st.integers(0, len(world) - 1),
        st.integers(0, len(world) - 1),
        st.one_of(st.none(), st.sampled_from(list(AssertionKind))),
    )
    return world, draw(st.lists(step, max_size=30))


@settings(deadline=None, max_examples=150)
@given(closure_scripts())
def test_closure_matches_the_naive_fixpoint_after_every_step(drawn):
    """After every specify/respecify/retract/remove/re-add, the feasible
    table and the derived assertions equal a naive all-triangles fixpoint
    over the specified assertions, and a removed node leaves no residue:
    no constrained row or column entry and no support that names it."""
    from repro.baselines import naive_closure

    world, script = drawn
    refs = [ObjectRef("w", f"S{i}") for i in range(len(world))]
    network = AssertionNetwork()
    for ref in refs:
        network.add_object(ref)
    for verb, i, j, kind in script:
        if kind is None:
            kind = _actual_kind(world[i], world[j])
        try:
            if verb == "specify":
                network.specify(refs[i], refs[j], kind)
            elif verb == "respecify":
                network.respecify(refs[i], refs[j], kind)
            elif verb == "retract":
                network.retract(refs[i], refs[j])
            elif verb == "remove":
                network.remove_object(refs[i])
            else:
                network.add_object(refs[i])
        except (AssertionSpecError, ConflictError):
            pass
        if verb == "remove":
            node = network._ids[refs[i]]
            rows = network._rows
            assert all(rows[node][other] == ALL_MASK for other in range(len(rows)))
            assert all(row[node] == ALL_MASK for row in rows)
            assert not any(node in key for key in network._supports)
            assert not any(node in support for support in network._supports.values())
            for key, supports in network._support_index.items():
                assert node not in key
                assert not any(node in support for support in supports)
        closure = naive_closure(network.objects(), network.specified_assertions())
        assert closure is not None
        table, derived = closure
        assert network.feasible_table() == table
        assert {
            (assertion.pair, assertion.kind.code)
            for assertion in network.derived_assertions()
        } == derived


# -- minimal labels: every feasible relation is realisable ------------------------


def _oriented(labels, a: int, b: int) -> frozenset:
    return labels[(a, b)] if a < b else converse_set(labels[(b, a)])


def _path_consistent(size: int, labels: dict) -> dict | None:
    """Naive all-triangles path consistency over relation sets."""
    labels = dict(labels)
    changed = True
    while changed:
        changed = False
        for a, b, c in itertools.permutations(range(size), 3):
            old = _oriented(labels, a, c)
            new = old & compose_sets(_oriented(labels, a, b), _oriented(labels, b, c))
            if new == old:
                continue
            if not new:
                return None
            if a < c:
                labels[(a, c)] = new
            else:
                labels[(c, a)] = converse_set(new)
            changed = True
    return labels


def _is_model(size: int, labels: dict) -> bool:
    """Whether concrete sets realise an atomic labelling.

    Object i gets a private element, plus one element per overlap it
    takes part in, plus everything of every object it contains or
    equals; the labelling holds when those sets stand in exactly the
    labelled relations.
    """

    def relation(a: int, b: int) -> Relation:
        (only,) = _oriented(labels, a, b)
        return only

    below = [
        {i} | {
            j for j in range(size)
            if j != i and relation(j, i) in (Relation.PP, Relation.EQ)
        }
        for i in range(size)
    ]
    own = [
        {("own", i)} | {
            ("overlap", min(i, j), max(i, j)) for j in range(size)
            if j != i and relation(i, j) is Relation.PO
        }
        for i in range(size)
    ]
    sets = [frozenset().union(*(own[j] for j in below[i])) for i in range(size)]
    return all(
        _actual_kind(sets[a], sets[b]).relation is relation(a, b)
        for a, b in labels
    )


def _atomic_model(size: int, labels: dict) -> dict | None:
    """An atomic refinement of ``labels`` that sets realise, or ``None``.

    Backtracks over the pairs' relations, pruning by path consistency;
    a refinement counts only once :func:`_is_model` builds its sets.
    """
    labels = _path_consistent(size, labels)
    if labels is None:
        return None
    open_pairs = [pair for pair, relations in labels.items() if len(relations) > 1]
    if not open_pairs:
        return labels if _is_model(size, labels) else None
    pair = min(open_pairs, key=lambda open_pair: len(labels[open_pair]))
    for relation in Relation:
        if relation in labels[pair]:
            model = _atomic_model(size, {**labels, pair: frozenset({relation})})
            if model is not None:
                return model
    return None


def _realisable(size: int, facts: dict) -> dict:
    """Per pair, every relation some model of ``facts`` gives it."""
    realised = {pair: set() for pair in facts}
    for pair, allowed in facts.items():
        for relation in Relation:
            if relation in realised[pair] or relation not in allowed:
                continue
            model = _atomic_model(size, {**facts, pair: frozenset({relation})})
            if model is not None:
                for other, (only,) in model.items():
                    realised[other].add(only)
    return realised


@st.composite
def specified_worlds(draw):
    """4-7 sets and facts over them, in random order: mostly their true
    relations, some random codes the network may refuse."""
    world = draw(
        st.lists(
            st.frozensets(st.integers(0, 5), min_size=1), min_size=4, max_size=7
        )
    )
    pairs = draw(st.permutations(list(itertools.combinations(range(len(world)), 2))))
    pairs = pairs[: draw(st.integers(1, len(pairs)))]
    kinds = draw(
        st.lists(
            st.one_of(st.none(), st.none(), st.sampled_from(list(AssertionKind))),
            min_size=len(pairs),
            max_size=len(pairs),
        )
    )
    return world, list(zip(pairs, kinds))


@settings(deadline=None, max_examples=40)
@given(specified_worlds())
def test_every_feasible_relation_is_realised_by_a_model(drawn):
    """The closure's labels are minimal: each relation a pair keeps is
    taken in some model of the specified assertions, and no other is —
    so every entailed assertion is derived."""
    world, steps = drawn
    size = len(world)
    refs = [ObjectRef("w", f"S{i}") for i in range(size)]
    network = AssertionNetwork()
    for ref in refs:
        network.add_object(ref)
    for (i, j), kind in steps:
        try:
            network.specify(
                refs[i], refs[j], kind or _actual_kind(world[i], world[j])
            )
        except (AssertionSpecError, ConflictError):
            pass
    facts = dict.fromkeys(itertools.combinations(range(size), 2), ALL_RELATIONS)
    specified = set()
    for fact in network.specified_assertions():
        i, j = refs.index(fact.first), refs.index(fact.second)
        relation = fact.relation if i < j else converse(fact.relation)
        pair = (min(i, j), max(i, j))
        facts[pair] = frozenset({relation})
        specified.add(pair)
    for (i, j), relations in _realisable(size, facts).items():
        assert network.feasible(refs[i], refs[j]) == relations
        if len(relations) == 1 and (i, j) not in specified:
            derived = network.assertion_for(refs[i], refs[j])
            assert derived.source is Source.DERIVED


class TestNodeLimit:
    """A via cell names node ids below ``_MAX_NODES``; a batch that would
    pass it is refused before the network changes."""

    def test_the_bound_is_what_two_byte_via_cells_can_name(self):
        from repro.assertions import network as module

        top = module._MAX_NODES - 1  # the highest node id
        assert module._code(top, True) <= 0xFFFF < module._code(top + 1, True)
        AssertionNetwork._check_node_limit(module._MAX_NODES)
        with pytest.raises(AssertionSpecError, match="at most 32767"):
            AssertionNetwork._check_node_limit(module._MAX_NODES + 1)

    def test_a_batch_past_the_limit_changes_nothing(self, monkeypatch):
        from repro.assertions import network as module

        monkeypatch.setattr(module, "_MAX_NODES", 3)
        network = AssertionNetwork()
        refs = [ObjectRef("s", f"O{i}") for i in range(4)]
        network.add_objects(refs[:2])
        with pytest.raises(AssertionSpecError):
            network.add_objects(refs[1:])
        assert network.objects() == refs[:2]
        assert len(network._rows) == len(network._vias) == 2
        # re-registering known classes does not count against the limit
        network.add_objects(refs[:2] + refs[2:3] + refs[2:3])
        assert network.objects() == refs[:3]
