"""Tests for the RCC-5 composition table — including a model-based check.

The model-based property test draws random non-empty subsets of a small
universe, computes their *actual* relations, and verifies that the table's
feasible set always contains the actual composed relation.  This validates
every cell of the table against set semantics.
"""

import pytest
from hypothesis import given, strategies as st

from repro.assertions.composition import (
    ALL_MASK,
    ALL_RELATIONS,
    COMPOSE_MASK,
    COMPOSE_TRANSLATE,
    CONVERSE_MASK,
    MASK_RELATIONS,
    RELATIONS_MASK,
    compose,
    compose_sets,
    converse,
    converse_set,
)
from repro.assertions.kinds import Relation


def actual_relation(first: frozenset, second: frozenset) -> Relation:
    """The true RCC-5 relation between two non-empty sets."""
    if first == second:
        return Relation.EQ
    if first < second:
        return Relation.PP
    if first > second:
        return Relation.PPI
    if first & second:
        return Relation.PO
    return Relation.DR


nonempty_sets = st.frozensets(st.integers(0, 5), min_size=1)


class TestTableShape:
    def test_complete(self):
        for a in Relation:
            for b in Relation:
                result = compose(a, b)
                assert result and result <= ALL_RELATIONS

    def test_eq_is_identity(self):
        for relation in Relation:
            assert compose(Relation.EQ, relation) == frozenset({relation})
            assert compose(relation, Relation.EQ) == frozenset({relation})

    def test_paper_transitivity_rule(self):
        # "if a ⊆ b and b ⊆ c then a ⊆ c"
        assert compose(Relation.PP, Relation.PP) == frozenset({Relation.PP})
        assert compose(Relation.PPI, Relation.PPI) == frozenset({Relation.PPI})

    def test_subset_of_disjoint_is_disjoint(self):
        assert compose(Relation.PP, Relation.DR) == frozenset({Relation.DR})

    def test_converse_symmetry_of_table(self):
        # compose(a, b) == converse(compose(converse(b), converse(a)))
        for a in Relation:
            for b in Relation:
                direct = compose(a, b)
                mirrored = converse_set(compose(converse(b), converse(a)))
                assert direct == mirrored


class TestConverse:
    def test_pairs(self):
        assert converse(Relation.PP) is Relation.PPI
        assert converse(Relation.PPI) is Relation.PP
        for relation in (Relation.EQ, Relation.PO, Relation.DR):
            assert converse(relation) is relation

    def test_involution(self):
        for relation in Relation:
            assert converse(converse(relation)) is relation

    def test_converse_set(self):
        assert converse_set(frozenset({Relation.PP, Relation.DR})) == frozenset(
            {Relation.PPI, Relation.DR}
        )


class TestComposeSets:
    def test_universal_short_circuit(self):
        assert compose_sets(ALL_RELATIONS, frozenset({Relation.PP})) is ALL_RELATIONS

    def test_union_over_members(self):
        left = frozenset({Relation.EQ, Relation.PP})
        right = frozenset({Relation.PP})
        assert compose_sets(left, right) == compose(
            Relation.EQ, Relation.PP
        ) | compose(Relation.PP, Relation.PP)

    def test_empty_left(self):
        assert compose_sets(frozenset(), frozenset({Relation.PP})) == frozenset()


class TestMaskTables:
    def test_masks_and_sets_round_trip(self):
        assert MASK_RELATIONS[ALL_MASK] is ALL_RELATIONS
        assert len(set(MASK_RELATIONS)) == ALL_MASK + 1
        for mask, relations in enumerate(MASK_RELATIONS):
            assert RELATIONS_MASK[relations] == mask

    def test_every_mask_pair_composes_like_compose_sets(self):
        for first in range(1, ALL_MASK + 1):
            for second in range(1, ALL_MASK + 1):
                expected = compose_sets(
                    MASK_RELATIONS[first], MASK_RELATIONS[second]
                )
                assert MASK_RELATIONS[COMPOSE_MASK[first][second]] == expected

    def test_every_mask_converts_like_converse_set(self):
        for mask in range(1, ALL_MASK + 1):
            assert MASK_RELATIONS[CONVERSE_MASK[mask]] == converse_set(
                MASK_RELATIONS[mask]
            )

    def test_translate_tables_are_the_composition_rows(self):
        assert len(COMPOSE_TRANSLATE) == ALL_MASK + 1
        for mask, table in enumerate(COMPOSE_TRANSLATE):
            assert len(table) == 256
            for other in range(ALL_MASK + 1):
                assert table[other] == COMPOSE_MASK[mask][other]

    def test_composing_with_a_universal_leg_is_universal(self):
        # the row-wise kernel relies on this: the diagonal and removed
        # columns are universal, so they never narrow
        for mask in range(1, ALL_MASK + 1):
            assert COMPOSE_MASK[mask][ALL_MASK] == ALL_MASK
            assert COMPOSE_MASK[ALL_MASK][mask] == ALL_MASK

    def test_a_leg_that_survives_keeps_its_converse_leg_alive(self):
        """If R(i,k) ∩ R(i,j)∘R(j,k) is non-empty, so is
        R(j,k) ∩ R(j,i)∘(that narrowed R(i,k)): a pop can only empty the
        (i, k) side of a triangle, never (k, j) after (i, k) survived."""
        for ij in range(1, ALL_MASK + 1):
            for jk in range(1, ALL_MASK + 1):
                for ik in range(1, ALL_MASK + 1):
                    narrowed = ik & COMPOSE_MASK[ij][jk]
                    if narrowed:
                        ji = CONVERSE_MASK[ij]
                        assert jk & COMPOSE_MASK[ji][narrowed]


@given(nonempty_sets, nonempty_sets, nonempty_sets)
def test_table_is_sound_against_set_model(a, b, c):
    """For all sets: actual(a,c) ∈ compose(actual(a,b), actual(b,c))."""
    rel_ab = actual_relation(a, b)
    rel_bc = actual_relation(b, c)
    rel_ac = actual_relation(a, c)
    assert rel_ac in compose(rel_ab, rel_bc)


@given(nonempty_sets, nonempty_sets)
def test_converse_matches_set_model(a, b):
    assert actual_relation(b, a) is converse(actual_relation(a, b))


@pytest.mark.parametrize("left", list(Relation))
@pytest.mark.parametrize("right", list(Relation))
def test_every_table_entry_is_witnessed(left, right):
    """Completeness (no over-tight cells): every relation in a feasible set
    is realised by some triple of sets over a small universe."""
    universe = range(4)
    subsets = [
        frozenset(s)
        for s in _powerset(universe)
        if s
    ]
    witnessed = set()
    for a in subsets:
        for b in subsets:
            if actual_relation(a, b) is not left:
                continue
            for c in subsets:
                if actual_relation(b, c) is right:
                    witnessed.add(actual_relation(a, c))
    assert witnessed == set(compose(left, right))


def _powerset(universe):
    items = list(universe)
    for mask in range(1 << len(items)):
        yield {item for index, item in enumerate(items) if mask >> index & 1}
