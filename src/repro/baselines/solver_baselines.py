"""The independent oracle the network and the batch solver are checked against.

:func:`naive_closure` is a deliberately naive all-triangles
path-consistency fixpoint over frozensets, built on
:func:`~repro.assertions.composition.compose_sets` alone, so it shares no
code with the closure kernel that both :class:`AssertionNetwork` and
``repro.solver`` run on.  The Hypothesis suites and
``benchmarks/record_solver.py`` compare feasible tables, derived keys
(:func:`derived_keys`) and the consistency verdict against it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.assertions.assertion import Assertion, Pair, ordered_pair
from repro.assertions.composition import (
    ALL_RELATIONS,
    compose_sets,
    converse_set,
)
from repro.assertions.kinds import AssertionKind, Relation
from repro.ecr.schema import ObjectRef


def derived_keys(derived: dict[Pair, Assertion]) -> set[tuple[Pair, int]]:
    """Comparable (pair, kind-code) view of a derived-assertion table."""
    return {
        (pair, assertion.kind.code) for pair, assertion in derived.items()
    }


def objects_of(facts: Sequence[Assertion]) -> list[ObjectRef]:
    """Every object mentioned by a fact list, first-mention order."""
    seen: dict[ObjectRef, None] = {}
    for fact in facts:
        seen.setdefault(fact.first)
        seen.setdefault(fact.second)
    return list(seen)


def naive_closure(
    objects: Iterable[ObjectRef], facts: Sequence[Assertion]
) -> tuple[dict[Pair, frozenset[Relation]], set[tuple[Pair, int]]] | None:
    """The path-consistency fixpoint of ``facts``, computed naively.

    Starts every pair of ``objects`` at all five relations, narrows each
    fact's pair to its relation, then sweeps every ordered triangle
    (``R(a,c) ∩= R(a,b) ∘ R(b,c)``) until a whole sweep changes nothing.
    Returns the non-universal feasible sets keyed by canonical pair (the
    shape of :meth:`AssertionNetwork.feasible_table`) and the
    ``(pair, kind-code)`` keys of the derived assertions: singleton pairs
    no fact specifies, a disjointness read as integrable.  Returns
    ``None`` when some pair empties, i.e. the facts are inconsistent.
    """
    objects = list(objects)
    feasible: dict[Pair, frozenset[Relation]] = {}

    def get(first: ObjectRef, second: ObjectRef) -> frozenset[Relation]:
        pair = ordered_pair(first, second)
        relations = feasible.get(pair, ALL_RELATIONS)
        return relations if pair == (first, second) else converse_set(relations)

    def put(
        first: ObjectRef, second: ObjectRef, relations: frozenset[Relation]
    ) -> None:
        pair = ordered_pair(first, second)
        feasible[pair] = (
            relations if pair == (first, second) else converse_set(relations)
        )

    for fact in facts:
        put(fact.first, fact.second, get(fact.first, fact.second) & {fact.relation})
    changed = True
    while changed:
        changed = False
        for a in objects:
            for b in objects:
                for c in objects:
                    if a == b or b == c or a == c:
                        continue
                    old = get(a, c)
                    new = old & compose_sets(get(a, b), get(b, c))
                    if new != old:
                        put(a, c, new)
                        changed = True
    if any(not relations for relations in feasible.values()):
        return None
    table = {
        pair: relations
        for pair, relations in feasible.items()
        if relations != ALL_RELATIONS
    }
    specified = {fact.pair for fact in facts}
    derived = set()
    for pair, relations in table.items():
        if len(relations) != 1 or pair in specified:
            continue
        (relation,) = relations
        kind = (
            AssertionKind.DISJOINT_INTEGRABLE
            if relation is Relation.DR
            else AssertionKind.from_relation(relation)
        )
        derived.add((pair, kind.code))
    return table, derived
