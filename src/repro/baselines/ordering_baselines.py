"""Candidate-pair ordering baselines (experiment EXP-ORD).

The paper's claim: ordering object pairs by the resemblance heuristic lets
the DDA find the integrable pairs early.  We compare the resemblance
ordering against a random permutation and an alphabetical listing of *all*
cross-schema pairs, measuring recall@k — the fraction of true
correspondences among the first k pairs reviewed.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.ecr.schema import ObjectRef, Schema
from repro.equivalence.ordering import ordered_object_pairs
from repro.equivalence.registry import EquivalenceRegistry

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.workloads.oracle import GroundTruth

#: An ordering is just a list of cross-schema object pairs to review.
PairList = list[tuple[ObjectRef, ObjectRef]]


def all_cross_pairs(first: Schema, second: Schema) -> PairList:
    """Every cross-schema object-class pair, in declaration order."""
    return [
        (ObjectRef(first.name, a.name), ObjectRef(second.name, b.name))
        for a in first.object_classes()
        for b in second.object_classes()
    ]


def ordering_resemblance(
    registry: EquivalenceRegistry, first: Schema, second: Schema
) -> PairList:
    """The paper's ordering: descending attribute ratio (Screen 8).

    Pairs with no equivalent attributes follow the ranked ones in
    alphabetical order, so the review list is complete and comparable to
    the baselines.
    """
    ranked = ordered_object_pairs(registry, first.name, second.name)
    head = [(pair.first, pair.second) for pair in ranked]
    covered = set(head)
    tail = sorted(
        pair for pair in all_cross_pairs(first, second) if pair not in covered
    )
    return head + tail


def ordering_random(
    first: Schema, second: Schema, seed: int = 0
) -> PairList:
    """A uniformly random review order (the no-tool baseline)."""
    pairs = all_cross_pairs(first, second)
    random.Random(seed).shuffle(pairs)
    return pairs


def ordering_alphabetical(first: Schema, second: Schema) -> PairList:
    """Alphabetical by qualified names (a naive printed listing)."""
    return sorted(all_cross_pairs(first, second))


def recall_at_k(
    ordering: PairList, truth: GroundTruth, k: int
) -> float:
    """Fraction of the true correspondences found in the first ``k`` pairs."""
    relevant = truth.object_assertions
    if not relevant:
        return 1.0
    seen = 0
    for first, second in ordering[:k]:
        key = (second, first) if second < first else (first, second)
        if key in relevant:
            seen += 1
    return seen / len(relevant)


def recall_curve(ordering: PairList, truth: GroundTruth) -> list[float]:
    """recall@k for every prefix length 1..len(ordering)."""
    return [
        recall_at_k(ordering, truth, k) for k in range(1, len(ordering) + 1)
    ]


def effort_to_full_recall(ordering: PairList, truth: GroundTruth) -> int:
    """Number of pairs the DDA must review to see every true correspondence.

    Returns ``len(ordering)`` when some correspondence never appears (it
    then costs a full scan to be sure).
    """
    remaining = set(truth.object_assertions)
    for index, (first, second) in enumerate(ordering, start=1):
        key = (second, first) if second < first else (first, second)
        remaining.discard(key)
        if not remaining:
            return index
    return len(ordering)
