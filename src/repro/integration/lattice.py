"""Small DAG utilities for building IS-A lattices.

Integration produces IS-A edges from three sources — original category
structures, cross-schema ``contained in`` assertions and new derived
parents.  Transitive derivation means redundant edges appear (if A ⊆ B and
B ⊆ C the network also derives A ⊆ C); the lattice keeps only the covering
edges, which is what :func:`transitive_reduction` computes.

:class:`AncestorMap` reads one edge list once: its adjacency, and each
node's ancestors memoised as a bitset over the nodes.  Every walk here is
iterative, so a lattice of any depth is safe from the recursion limit.
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

from repro.errors import IntegrationError

Node = TypeVar("Node", bound=Hashable)
Edge = tuple[Node, Node]


def _successors(edges: Iterable[Edge]) -> dict:
    adjacency: dict = {}
    for child, parent in edges:
        adjacency.setdefault(child, []).append(parent)
    return adjacency


def ancestors_in_dag(edges: Iterable[Edge], node: Node) -> set:
    """All nodes reachable from ``node`` along (child, parent) edges."""
    adjacency = _successors(edges)
    seen: set = set()
    frontier = list(adjacency.get(node, ()))
    while frontier:
        current = frontier.pop()
        if current in seen:
            continue
        seen.add(current)
        frontier.extend(adjacency.get(current, ()))
    return seen


class AncestorMap:
    """The ancestors of every node of one (child, parent) edge list.

    Built once per edge list.  A node's ancestors are computed on first
    use, bottom-up without recursion, and kept as an int bitset over the
    nodes, so a parent's set is shared by OR rather than copied.  Raises
    :class:`IntegrationError` on a cycle it walks into.
    """

    def __init__(self, edges: Iterable[Edge]) -> None:
        #: child -> its distinct parents, in edge order
        self.parents: dict = {}
        self._bit: dict = {}
        self._memo: dict = {}
        for child, parent in edges:
            for node in (child, parent):
                if node not in self._bit:
                    self._bit[node] = 1 << len(self._bit)
            parents = self.parents.setdefault(child, [])
            if parent not in parents:
                parents.append(parent)

    def _mask(self, node) -> int:
        """The bitset of ``node``'s ancestors."""
        memo = self._memo
        found = memo.get(node)
        if found is not None:
            return found
        parents, bit = self.parents, self._bit
        open_nodes: set = set()  # expanded, not yet finished: the DFS path
        stack = [node]
        while stack:
            current = stack[-1]
            if current in memo:
                stack.pop()
                continue
            if current not in open_nodes:
                open_nodes.add(current)
                for parent in parents.get(current, ()):
                    if parent in open_nodes:
                        raise IntegrationError(f"IS-A cycle through {parent!r}")
                    if parent not in memo:
                        stack.append(parent)
                continue
            mask = 0
            for parent in parents.get(current, ()):
                mask |= memo[parent] | bit[parent]
            memo[current] = mask
            open_nodes.discard(current)
            stack.pop()
        return memo[node]

    def is_above(self, upper, node) -> bool:
        """Whether ``upper`` is an ancestor of ``node``."""
        bit = self._bit.get(upper)
        return bit is not None and bool(self._mask(node) & bit)

    def check_acyclic(self) -> None:
        """Raise :class:`IntegrationError` if the edges contain a cycle."""
        for child in self.parents:
            self._mask(child)


def check_acyclic(edges: list[Edge]) -> None:
    """Raise :class:`IntegrationError` if the edge set contains a cycle."""
    AncestorMap(edges).check_acyclic()


def transitive_reduction(edges: list[Edge]) -> list[Edge]:
    """Drop edges implied by longer paths, keeping only covering edges.

    An edge (child, parent) is redundant when parent is reachable from
    child through some *other* outgoing edge, that is, when parent is an
    ancestor of one of child's other parents.  Input order is preserved
    for the surviving edges (duplicates keep their first place).  Raises
    on cyclic input.
    """
    lattice = AncestorMap(edges)
    lattice.check_acyclic()
    kept: list[Edge] = []
    for child, parent in dict.fromkeys(edges):
        if not any(
            lattice.is_above(parent, other)
            for other in lattice.parents[child]
            if other != parent
        ):
            kept.append((child, parent))
    return kept
