"""Tests for DAG utilities (transitive reduction, ancestors)."""

import sys

import pytest
from hypothesis import given, strategies as st

from repro.errors import IntegrationError
from repro.integration.lattice import (
    AncestorMap,
    ancestors_in_dag,
    check_acyclic,
    transitive_reduction,
)


def quadratic_reduction(edges):
    """The O(E²) definition: drop an edge when its parent is reachable
    from its child without it (the oracle for the ancestor map)."""
    check_acyclic(edges)
    unique = list(dict.fromkeys(edges))
    kept = []
    for edge in unique:
        child, parent = edge
        others = [other for other in unique if other != edge]
        if parent not in ancestors_in_dag(others, child):
            kept.append(edge)
    return kept


class TestAncestors:
    def test_chain(self):
        edges = [("a", "b"), ("b", "c")]
        assert ancestors_in_dag(edges, "a") == {"b", "c"}
        assert ancestors_in_dag(edges, "c") == set()

    def test_diamond(self):
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert ancestors_in_dag(edges, "a") == {"b", "c", "d"}


class TestAcyclicity:
    def test_accepts_dag(self):
        check_acyclic([("a", "b"), ("b", "c"), ("a", "c")])

    def test_rejects_cycle(self):
        with pytest.raises(IntegrationError):
            check_acyclic([("a", "b"), ("b", "a")])

    def test_rejects_self_loop(self):
        with pytest.raises(IntegrationError):
            check_acyclic([("a", "a")])


class TestTransitiveReduction:
    def test_removes_shortcut(self):
        edges = [("a", "b"), ("b", "c"), ("a", "c")]
        assert transitive_reduction(edges) == [("a", "b"), ("b", "c")]

    def test_keeps_diamond(self):
        edges = [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")]
        assert transitive_reduction(edges) == edges

    def test_duplicates_removed(self):
        edges = [("a", "b"), ("a", "b")]
        assert transitive_reduction(edges) == [("a", "b")]

    def test_rejects_cyclic_input(self):
        with pytest.raises(IntegrationError):
            transitive_reduction([("a", "b"), ("b", "a")])

    def test_long_chain_with_all_shortcuts(self):
        chain = [("n0", "n1"), ("n1", "n2"), ("n2", "n3")]
        shortcuts = [("n0", "n2"), ("n0", "n3"), ("n1", "n3")]
        assert transitive_reduction(chain + shortcuts) == chain


@st.composite
def random_dags(draw):
    size = draw(st.integers(2, 7))
    nodes = [f"n{i}" for i in range(size)]
    edges = []
    for i in range(size):
        for j in range(i + 1, size):
            if draw(st.booleans()):
                edges.append((nodes[i], nodes[j]))
    return edges


@given(random_dags())
def test_reduction_preserves_reachability(edges):
    reduced = transitive_reduction(edges)
    nodes = {n for edge in edges for n in edge}
    for node in nodes:
        assert ancestors_in_dag(edges, node) == ancestors_in_dag(reduced, node)


@given(random_dags())
def test_reduction_is_minimal(edges):
    reduced = transitive_reduction(edges)
    for edge in reduced:
        without = [other for other in reduced if other != edge]
        child, parent = edge
        assert parent not in ancestors_in_dag(without, child)


@st.composite
def shuffled_dags(draw):
    """A DAG's edges in any order, some repeated."""
    edges = draw(random_dags())
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return draw(st.permutations(edges))


def _is_subsequence(short, long):
    remaining = iter(long)
    return all(item in remaining for item in short)


@given(shuffled_dags())
def test_reduction_keeps_input_order_and_matches_the_quadratic_definition(edges):
    reduced = transitive_reduction(edges)
    assert _is_subsequence(reduced, list(dict.fromkeys(edges)))
    assert reduced == quadratic_reduction(edges)


@given(shuffled_dags())
def test_ancestor_map_agrees_with_ancestors_in_dag(edges):
    lattice = AncestorMap(edges)
    nodes = sorted({n for edge in edges for n in edge}) + ["elsewhere"]
    for node in nodes:
        above = ancestors_in_dag(edges, node)
        for other in nodes:
            assert lattice.is_above(other, node) == (other in above)


class TestDeepLattices:
    """Depth is bounded by nothing but memory: no walk may recurse."""

    DEPTH = 5_000

    def chain(self):
        return [(f"n{i}", f"n{i + 1}") for i in range(self.DEPTH)]

    def test_chain_deeper_than_the_recursion_limit(self):
        assert self.DEPTH > sys.getrecursionlimit()
        chain = self.chain()
        check_acyclic(chain)
        assert transitive_reduction(chain) == chain

    def test_chain_with_a_shortcut_drops_it(self):
        chain = self.chain()
        shortcut = ("n0", f"n{self.DEPTH}")
        assert transitive_reduction([shortcut] + chain) == chain
        assert AncestorMap(chain).is_above(f"n{self.DEPTH}", "n0")

    def test_cycle_at_the_end_of_a_deep_chain_raises(self):
        chain = self.chain() + [(f"n{self.DEPTH}", "n1")]
        with pytest.raises(IntegrationError):
            check_acyclic(chain)
        with pytest.raises(IntegrationError):
            transitive_reduction(chain)
