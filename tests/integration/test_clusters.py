"""Tests for cluster computation."""

from hypothesis import given, settings, strategies as st

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import AssertionKind, Source
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import ObjectRef
from repro.errors import AssertionSpecError, ConflictError
from repro.integration.clusters import (
    Cluster,
    cluster_of,
    compute_clusters,
    connecting_assertions,
    connects_pair,
)
from repro.integration.integrator import canonical_assertions
from repro.workloads.generator import GeneratorConfig, generate_schema_pair

A = ObjectRef("s", "A")
B = ObjectRef("s", "B")


class TestConnectsPair:
    def test_definite_relations_always_connect(self):
        for kind in (
            AssertionKind.EQUALS,
            AssertionKind.CONTAINED_IN,
            AssertionKind.CONTAINS,
        ):
            assert connects_pair(Assertion(A, B, kind))

    def test_nonintegrable_never_connects(self):
        assertion = Assertion(A, B, AssertionKind.DISJOINT_NONINTEGRABLE)
        assert not connects_pair(assertion)

    def test_decided_overlap_connects(self):
        assert connects_pair(Assertion(A, B, AssertionKind.MAY_BE))
        assert connects_pair(Assertion(A, B, AssertionKind.DISJOINT_INTEGRABLE))

    def test_undecided_derived_disjoint_does_not_connect(self):
        derived = Assertion(
            A,
            B,
            AssertionKind.DISJOINT_INTEGRABLE,
            Source.DERIVED,
            integrability_decided=False,
        )
        assert not connects_pair(derived)


class TestComputeClusters:
    def test_paper_clusters(self, object_network):
        clusters = compute_clusters(object_network)
        multi = sorted(
            tuple(sorted(str(m) for m in cluster.members))
            for cluster in clusters
            if not cluster.is_singleton
        )
        assert multi == [
            ("sc1.Department", "sc2.Department"),
            ("sc1.Student", "sc2.Faculty", "sc2.Grad_student"),
        ]

    def test_singletons_included(self, object_network):
        clusters = compute_clusters(object_network)
        total = sum(len(cluster) for cluster in clusters)
        assert total == len(object_network.objects())

    def test_restriction_to_subset(self, object_network):
        objects = [ObjectRef("sc1", "Student"), ObjectRef("sc1", "Department")]
        clusters = compute_clusters(object_network, objects)
        assert all(cluster.is_singleton for cluster in clusters)

    def test_cluster_assertions_recorded(self, object_network):
        clusters = compute_clusters(object_network)
        student_cluster = cluster_of(clusters, ObjectRef("sc1", "Student"))
        assert student_cluster is not None
        assert len(student_cluster.assertions) >= 2

    def test_cluster_of_missing(self, object_network):
        clusters = compute_clusters(object_network)
        assert cluster_of(clusters, ObjectRef("zz", "Nope")) is None

    def test_nonintegrable_pair_stays_apart(self):
        network = AssertionNetwork()
        for ref in (A, B):
            network.add_object(ref)
        network.specify(A, B, AssertionKind.DISJOINT_NONINTEGRABLE)
        clusters = compute_clusters(network)
        assert len(clusters) == 2

    def test_str(self, object_network):
        clusters = compute_clusters(object_network)
        assert any("{" in str(cluster) for cluster in clusters)


# -- the mask-row reader against a walk over every assertion -----------------


def filter_all_assertions(network):
    """The walk Phase 4 used to make: every assertion, kept if it connects."""
    return [a for a in network.all_assertions() if connects_pair(a)]


def clusters_from_all_assertions(network, objects):
    """``compute_clusters`` as defined over every assertion (the oracle)."""
    chosen = set(objects)
    inside = [
        assertion
        for assertion in filter_all_assertions(network)
        if assertion.first in chosen and assertion.second in chosen
    ]
    clusters = []
    for members in _components(objects, inside):
        member_set = set(members)
        clusters.append(
            Cluster(
                members,
                [a for a in inside if a.first in member_set],
            )
        )
    return clusters


def _components(objects, assertions):
    """Connected components in first-member order, members in input order."""
    neighbours = {ref: set() for ref in objects}
    for assertion in assertions:
        neighbours[assertion.first].add(assertion.second)
        neighbours[assertion.second].add(assertion.first)
    seen = set()
    components = []
    for ref in objects:
        if ref in seen:
            continue
        reached = {ref}
        stack = [ref]
        while stack:
            for other in neighbours[stack.pop()]:
                if other not in reached:
                    reached.add(other)
                    stack.append(other)
        seen |= reached
        components.append([other for other in objects if other in reached])
    return components


def _world_schemas(seed):
    """Three schemas: one generated pair and the first of another."""
    config = GeneratorConfig(
        seed=seed, concepts=6, overlap=0.7, category_rate=0.5,
        shared_relationship_rate=0.5, overlap_rate=0.3,
    )
    pair = generate_schema_pair(config)
    third = generate_schema_pair(
        GeneratorConfig(seed=seed + 1, concepts=4, category_rate=0.5)
    ).first
    return pair, [pair.first, pair.second, third]


_STEP = st.tuples(
    st.sampled_from(["specify", "retract", "respecify", "remove"]),
    st.integers(0, 10_000),
    st.integers(0, 10_000),
    st.sampled_from(list(AssertionKind)),
)


def _edit(network, step, relationships_pool):
    """One DDA-shaped edit; refused ones leave the network as it was."""
    action, i, j, kind = step
    objects = network.objects()
    specified = network.specified_assertions()
    try:
        if action == "specify":
            pool = relationships_pool or objects
            first, second = pool[i % len(pool)], pool[j % len(pool)]
            if first != second and network.assertion_for(first, second) is None:
                network.specify(first, second, kind)
        elif action == "retract" and specified:
            target = specified[i % len(specified)]
            network.retract(target.first, target.second)
        elif action == "respecify" and specified:
            target = specified[i % len(specified)]
            code = (4, 5)[j % 2]
            network.respecify(target.first, target.second, code)
        elif action == "remove" and not relationships_pool and objects:
            network.remove_object(objects[i % len(objects)])
    except (ConflictError, AssertionSpecError):
        pass


def _check_reader(network, restricted):
    read = connecting_assertions(network)
    walked = filter_all_assertions(network)
    assert read == walked
    assert canonical_assertions(read) == canonical_assertions(walked)
    assert set(network.containment_assertions()) <= set(
        network.all_assertions()
    )
    objects = [ref for ref in network.objects() if ref.schema in restricted]
    got = compute_clusters(network, objects, connecting=read)
    want = clusters_from_all_assertions(network, objects)
    assert [c.members for c in got] == [c.members for c in want]
    assert [c.assertions for c in got] == [c.assertions for c in want]
    assert compute_clusters(network, objects) == got


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 5_000),
    steps=st.lists(_STEP, max_size=12),
)
def test_mask_row_reader_equals_the_filtered_walk(seed, steps):
    """``connecting_assertions`` — the specified log plus the derived
    EQ/PP/PPi pairs read off the mask rows — is exactly the old filter
    over ``all_assertions()``, in order and canonically sorted, after
    truth assertions, retracts, respecifies to codes 4 and 5 and
    ``remove_object`` (whose ids stay in the rows); clusters over two of
    three schemas agree, and so does the relationship network."""
    pair, schemas = _world_schemas(seed)
    restricted = {pair.first.name, pair.second.name}
    network = AssertionNetwork()
    relationships = AssertionNetwork()
    for schema in schemas:
        network.seed_schema(schema)
        for relationship in schema.relationship_sets():
            relationships.add_object(ObjectRef(schema.name, relationship.name))
    for (first, second), kind in sorted(pair.truth.object_assertions.items()):
        network.specify(first, second, kind)
    for (first, second), kind in sorted(
        pair.truth.relationship_assertions.items()
    ):
        relationships.specify(first, second, kind)
    _check_reader(network, restricted)
    _check_reader(relationships, restricted)
    rel_pool = relationships.objects()
    for step in steps:
        _edit(network, step, None)
        _edit(relationships, step, rel_pool)
        _check_reader(network, restricted)
        _check_reader(relationships, restricted)
