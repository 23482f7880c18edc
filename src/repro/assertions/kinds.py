"""Assertion kinds and the underlying domain relations.

Screen 8/9 of the paper number the assertions a DDA can give:

====  =======================================  ==================
code  meaning                                  domain relation
====  =======================================  ==================
0     disjoint and non-integrable              DR (disjoint)
1     equals                                   EQ (identical)
2     contained in                             PP (proper subset)
3     contains                                 PPi (proper superset)
4     disjoint but integrable                  DR (disjoint)
5     may be integrable (overlapping)          PO (partial overlap)
====  =======================================  ==================

Codes 0 and 4 share the DR relation and differ only in the DDA's
integrability decision; code 5 is the "may be" assertion of Figure 2c.
The domain relations are the RCC-5 base relations, which is what makes the
paper's transitive composition and consistency checking a qualitative
constraint problem.  Object domains are assumed non-empty (an entity set
models at least one real-world instance), which the composition table
relies on.
"""

from __future__ import annotations

import enum

from repro.errors import AssertionSpecError


class Relation(enum.Enum):
    """The five RCC-5 base relations between two object-class domains."""

    EQ = "equals"            #: identical domains
    PP = "contained-in"      #: proper subset (first inside second)
    PPI = "contains"         #: proper superset (second inside first)
    PO = "overlaps"          #: overlapping, neither contains the other
    DR = "disjoint"          #: no common instances

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class Source(enum.Enum):
    """Where an assertion came from."""

    DDA = "dda"            #: specified interactively by the DDA
    IMPLICIT = "implicit"  #: read off a schema's own IS-A structure
    DERIVED = "derived"    #: obtained by transitive composition

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class AssertionKind(enum.Enum):
    """The six assertion codes of Screens 8 and 9."""

    DISJOINT_NONINTEGRABLE = 0
    EQUALS = 1
    CONTAINED_IN = 2
    CONTAINS = 3
    DISJOINT_INTEGRABLE = 4
    MAY_BE = 5

    @property
    def code(self) -> int:
        """The menu number the DDA types (0-5)."""
        return self.value

    @property
    def relation(self) -> Relation:
        """The underlying domain relation."""
        return _KIND_RELATION[self]

    @property
    def integrable(self) -> bool:
        """Whether the pair takes part in integration.

        Everything except ``DISJOINT_NONINTEGRABLE`` is integrable — a
        cluster is "a group of related objects that are connected by any
        assertion except disjoint nonintegrable".
        """
        return self is not AssertionKind.DISJOINT_NONINTEGRABLE

    def describe(self, first: str = "A", second: str = "B") -> str:
        """Render the assertion in the menu phrasing of Screen 9."""
        return _KIND_PHRASES[self].format(first=first, second=second)

    @property
    def converse(self) -> "AssertionKind":
        """The same assertion read with the objects swapped."""
        if self is AssertionKind.CONTAINED_IN:
            return AssertionKind.CONTAINS
        if self is AssertionKind.CONTAINS:
            return AssertionKind.CONTAINED_IN
        return self

    @classmethod
    def from_code(cls, code: int) -> "AssertionKind":
        """Look up a Screen 8/9 menu number.

        Raises
        ------
        AssertionSpecError
            If ``code`` is not one of 0-5.
        """
        try:
            return cls(code)
        except ValueError:
            raise AssertionSpecError(
                f"assertion code must be 0-5, got {code!r}"
            ) from None

    @classmethod
    def from_relation(
        cls, relation: Relation, integrable: bool | None = None
    ) -> "AssertionKind":
        """Map a domain relation (plus integrability for DR) to a kind.

        ``integrable`` is required only for :data:`Relation.DR`; a derived
        disjointness whose integrability the DDA has not yet decided maps to
        ``DISJOINT_NONINTEGRABLE`` only when explicitly passed ``False``.
        """
        if relation is Relation.DR:
            if integrable is None:
                raise AssertionSpecError(
                    "disjoint relation needs an integrability decision"
                )
            if integrable:
                return cls.DISJOINT_INTEGRABLE
            return cls.DISJOINT_NONINTEGRABLE
        return _RELATION_KIND[relation]


_KIND_RELATION = {
    AssertionKind.DISJOINT_NONINTEGRABLE: Relation.DR,
    AssertionKind.EQUALS: Relation.EQ,
    AssertionKind.CONTAINED_IN: Relation.PP,
    AssertionKind.CONTAINS: Relation.PPI,
    AssertionKind.DISJOINT_INTEGRABLE: Relation.DR,
    AssertionKind.MAY_BE: Relation.PO,
}

_RELATION_KIND = {
    Relation.EQ: AssertionKind.EQUALS,
    Relation.PP: AssertionKind.CONTAINED_IN,
    Relation.PPI: AssertionKind.CONTAINS,
    Relation.PO: AssertionKind.MAY_BE,
}

def derived_kind(relation: Relation) -> tuple[AssertionKind, bool]:
    """The kind a derived singleton reads as, and ``integrability_decided``.

    Only an explicit DDA code decides integrability: a derived DR pair
    defaults to the integrable code 4 and a derived PO pair to "may be",
    both undecided; EQ, PP and PPi carry no integrability choice.
    """
    if relation is Relation.DR:
        return AssertionKind.DISJOINT_INTEGRABLE, False
    return _RELATION_KIND[relation], relation is not Relation.PO


_KIND_PHRASES = {
    AssertionKind.EQUALS: "{first} 'equals' {second}",
    AssertionKind.CONTAINED_IN: "{first} 'contained in' {second}",
    AssertionKind.CONTAINS: "{first} 'contains' {second}",
    AssertionKind.DISJOINT_INTEGRABLE: (
        "{first} and {second} are disjoint but integrable"
    ),
    AssertionKind.MAY_BE: "{first} and {second} may be integratable",
    AssertionKind.DISJOINT_NONINTEGRABLE: (
        "{first} and {second} are disjoint & non-integratable"
    ),
}
