"""The RCC-5 composition table: transitive composition of assertions.

Given the relation between domains A and B and the relation between B and
C, the composition table lists every relation that can hold between A and
C.  The paper derives assertions "using rules of transitive composition of
assertions (such as if a ⊆ b and b ⊆ c then a ⊆ c)"; the table below is
the complete set of such rules for the five domain relations, assuming
non-empty domains.  A singleton result is a definite derivation; a larger
set merely constrains what the DDA may consistently assert.
"""

from __future__ import annotations

from repro.assertions.kinds import Relation

EQ, PP, PPI, PO, DR = (
    Relation.EQ,
    Relation.PP,
    Relation.PPI,
    Relation.PO,
    Relation.DR,
)

#: The universal (unconstrained) relation set.
ALL_RELATIONS: frozenset[Relation] = frozenset(Relation)

_CONVERSE = {EQ: EQ, PP: PPI, PPI: PP, PO: PO, DR: DR}

#: compose(R1, R2) — feasible relations between A and C given A R1 B, B R2 C.
_TABLE: dict[tuple[Relation, Relation], frozenset[Relation]] = {
    (EQ, EQ): frozenset({EQ}),
    (EQ, PP): frozenset({PP}),
    (EQ, PPI): frozenset({PPI}),
    (EQ, PO): frozenset({PO}),
    (EQ, DR): frozenset({DR}),
    (PP, EQ): frozenset({PP}),
    (PP, PP): frozenset({PP}),
    (PP, PPI): ALL_RELATIONS,
    (PP, PO): frozenset({DR, PO, PP}),
    (PP, DR): frozenset({DR}),
    (PPI, EQ): frozenset({PPI}),
    (PPI, PP): frozenset({EQ, PO, PP, PPI}),
    (PPI, PPI): frozenset({PPI}),
    (PPI, PO): frozenset({PO, PPI}),
    (PPI, DR): frozenset({DR, PO, PPI}),
    (PO, EQ): frozenset({PO}),
    (PO, PP): frozenset({PO, PP}),
    (PO, PPI): frozenset({DR, PO, PPI}),
    (PO, PO): ALL_RELATIONS,
    (PO, DR): frozenset({DR, PO, PPI}),
    (DR, EQ): frozenset({DR}),
    (DR, PP): frozenset({DR, PO, PP}),
    (DR, PPI): frozenset({DR}),
    (DR, PO): frozenset({DR, PO, PP}),
    (DR, DR): ALL_RELATIONS,
}


def converse(relation: Relation) -> Relation:
    """The relation read with the two objects swapped."""
    return _CONVERSE[relation]


def converse_set(relations: frozenset[Relation]) -> frozenset[Relation]:
    """Element-wise converse of a relation set."""
    return frozenset(_CONVERSE[relation] for relation in relations)


def compose(first: Relation, second: Relation) -> frozenset[Relation]:
    """Feasible relations between A and C given A ``first`` B, B ``second`` C."""
    return _TABLE[(first, second)]


def compose_sets(
    first: frozenset[Relation], second: frozenset[Relation]
) -> frozenset[Relation]:
    """Composition lifted to relation sets (union over all base pairs).

    Short-circuits to :data:`ALL_RELATIONS` when either side is universal,
    which keeps path consistency cheap on sparse networks.
    """
    if first == ALL_RELATIONS or second == ALL_RELATIONS:
        return ALL_RELATIONS
    result: set[Relation] = set()
    for rel_a in first:
        for rel_b in second:
            result |= _TABLE[(rel_a, rel_b)]
            if len(result) == len(ALL_RELATIONS):
                return ALL_RELATIONS
    return frozenset(result)


# -- relation sets as 5-bit masks ----------------------------------------------
#
# The closure's inner loop works on masks: one bit per base relation, so a
# relation set is an int in 0..31.  Every table below is generated from
# ``_TABLE`` (through :func:`compose_sets` and :func:`converse_set`), which
# stays the single spec.

#: The bit of each base relation.
RELATION_BIT: dict[Relation, int] = {
    relation: 1 << index for index, relation in enumerate(Relation)
}

#: The mask of the universal relation set.
ALL_MASK = (1 << len(RELATION_BIT)) - 1

#: mask -> relation set (index ``ALL_MASK`` is :data:`ALL_RELATIONS` itself).
MASK_RELATIONS: tuple[frozenset[Relation], ...] = tuple(
    ALL_RELATIONS
    if mask == ALL_MASK
    else frozenset(
        relation for relation, bit in RELATION_BIT.items() if mask & bit
    )
    for mask in range(ALL_MASK + 1)
)

#: relation set -> mask.
RELATIONS_MASK: dict[frozenset[Relation], int] = {
    relations: mask for mask, relations in enumerate(MASK_RELATIONS)
}

#: ``CONVERSE_MASK[m]`` is the mask of ``converse_set(MASK_RELATIONS[m])``.
CONVERSE_MASK = bytes(
    RELATIONS_MASK[converse_set(relations)] for relations in MASK_RELATIONS
)

#: ``COMPOSE_MASK[a][b]`` is the mask of
#: ``compose_sets(MASK_RELATIONS[a], MASK_RELATIONS[b])``; like
#: :func:`compose_sets` it is ``ALL_MASK`` whenever either side is.
COMPOSE_MASK: tuple[bytes, ...] = tuple(
    bytes(
        RELATIONS_MASK[compose_sets(first, second)]
        for second in MASK_RELATIONS
    )
    for first in MASK_RELATIONS
)

#: ``COMPOSE_TRANSLATE[a]`` is ``COMPOSE_MASK[a]`` as a 256-byte
#: :meth:`bytes.translate` table, so one call composes ``a`` with every
#: mask of a row at once; bytes above ``ALL_MASK`` never occur in a row
#: and map to ``ALL_MASK``.
COMPOSE_TRANSLATE: tuple[bytes, ...] = tuple(
    composed + bytes([ALL_MASK]) * (256 - len(composed))
    for composed in COMPOSE_MASK
)
