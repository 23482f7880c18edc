"""Clusters: the integration units.

The paper: *"This involves creating clusters of entity sets.  A cluster is
a group of related objects that are connected by any assertion except
disjoint [non]integrable.  The concept of cluster helps in partitioning the
schemas to more manageable subsets."*

A pair *connects* when its assertion (specified or derived) is integrable
and actionable: equals / contained-in / contains always; may-be and
disjoint-integrable only when the DDA has actually decided integrability
(a *derived* disjointness whose integrability nobody confirmed must not
invent a new object class).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import Relation
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import ObjectRef
from repro.equivalence.union_find import DisjointSet


def connects_pair(assertion: Assertion) -> bool:
    """Whether an assertion places its two objects in one cluster."""
    if not assertion.kind.integrable:
        return False
    if assertion.relation in (Relation.EQ, Relation.PP, Relation.PPI):
        return True
    # Overlap/disjoint pairs integrate only on an explicit DDA decision.
    return assertion.integrability_decided


@dataclass
class Cluster:
    """One group of object classes integrated together."""

    members: list[ObjectRef]
    assertions: list[Assertion] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.members)

    @property
    def is_singleton(self) -> bool:
        """A cluster of one object — copied into the integrated schema as-is."""
        return len(self.members) == 1

    def __str__(self) -> str:
        return "{" + ", ".join(str(member) for member in self.members) + "}"


def connecting_assertions(network: AssertionNetwork) -> list[Assertion]:
    """The network's assertions that pass :func:`connects_pair`.

    Specified in specification order, then derived by pair (the order of
    :meth:`~AssertionNetwork.all_assertions`), read from
    :meth:`~AssertionNetwork.containment_assertions`: a derived overlap or
    disjointness never connects, so it is never read.
    """
    return [
        assertion
        for assertion in network.containment_assertions()
        if connects_pair(assertion)
    ]


def compute_clusters(
    network: AssertionNetwork,
    objects: list[ObjectRef] | None = None,
    *,
    connecting: list[Assertion] | None = None,
) -> list[Cluster]:
    """Partition objects into clusters by connecting assertions.

    ``objects`` restricts the partition (e.g. to the two schemas being
    integrated); by default all network objects are clustered.  Clusters
    are returned in first-member registration order; singleton clusters
    are included.  ``connecting`` is :func:`connecting_assertions` of the
    network, for a caller that has already read it; each cluster keeps
    its assertions in that list's order.
    """
    if objects is None:
        objects = network.objects()
    if connecting is None:
        connecting = connecting_assertions(network)
    chosen = set(objects)
    groups: DisjointSet[ObjectRef] = DisjointSet(objects)
    inside = [
        assertion
        for assertion in connecting
        if assertion.first in chosen and assertion.second in chosen
    ]
    for assertion in inside:
        groups.union(assertion.first, assertion.second)
    clusters = [Cluster(members) for members in groups.classes()]
    by_root = {
        groups.find(cluster.members[0]): cluster for cluster in clusters
    }
    for assertion in inside:
        by_root[groups.find(assertion.first)].assertions.append(assertion)
    return clusters


def cluster_of(
    clusters: list[Cluster], ref: ObjectRef
) -> Cluster | None:
    """The cluster containing ``ref``, if any."""
    for cluster in clusters:
        if ref in cluster.members:
            return cluster
    return None
