"""Minimal conflict sets over asserted facts (QuickXplain).

When propagation empties a pair's feasible set, the network's
:class:`~repro.assertions.conflicts.ConflictReport` shows *one*
derivation chain — how the clashing derived assertion was obtained.
That is an explanation of the derivation, not of the repair choice: the
chain can miss facts the failing propagation actually consumed, and it
does not tell the DDA which retraction would help.

This module answers the repair question.  :func:`minimal_conflict`
shrinks an inconsistent fact set to a subset that is

* **sufficient** — asserting exactly these facts reproduces the
  contradiction, and
* **minimal** — retracting any single member restores consistency,

using Junker's QUICKXPLAIN recursion (divide-and-conquer over the fact
sequence, preferring earlier-asserted facts when several minimal sets
exist).  All probes of one call share one network: each pushes only the
facts the recursion just moved into the base, under an undo log it rolls
back when its recursion returns.  Closure is unique, so each verdict is
that of a from-scratch closure of the probe's whole fact set.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.assertions.assertion import Assertion
from repro.assertions.composition import RELATION_BIT
from repro.assertions.network import AssertionNetwork, _UndoLog
from repro.errors import AssertionSpecError
from repro.obs.metrics import AnalysisCounters
from repro.obs.trace import span


def _network_over(facts: Sequence[Assertion]) -> AssertionNetwork:
    """A fresh network whose nodes are the facts' objects."""
    network = AssertionNetwork()
    network.add_objects(
        ref for fact in facts for ref in (fact.first, fact.second)
    )
    return network


def _seeds(
    network: AssertionNetwork, facts: Iterable[Assertion]
) -> Iterator[tuple[int, int, int]]:
    """The facts as the ``(x, y, relation bit)`` seeds the network pushes."""
    for fact in facts:
        x, y = network._pair_nodes(fact.first, fact.second)
        yield x, y, RELATION_BIT[fact.relation]


def is_consistent(
    facts: Sequence[Assertion],
    *,
    counters: AnalysisCounters | None = None,
) -> bool:
    """Whether a fact set admits a fixpoint (closed on a fresh network)."""
    if counters is not None:
        counters.solver_consistency_checks += 1
    network = _network_over(facts)
    culprit = network._push(_UndoLog(), _seeds(network, facts))
    if counters is not None:
        counters.solver_propagation_steps += network.counters.propagation_steps
    return culprit is None


def minimal_conflict(
    facts: Sequence[Assertion],
    *,
    background: Sequence[Assertion] = (),
    counters: AnalysisCounters | None = None,
) -> tuple[Assertion, ...]:
    """A minimal subset of ``facts`` inconsistent with ``background``.

    ``background`` holds facts that are *not* candidates for retraction —
    typically the one new assertion being explained — so the returned set
    names only pre-existing facts the DDA could retract.  If background
    plus all facts is consistent there is nothing to explain and
    :class:`~repro.errors.AssertionSpecError` is raised.  An inconsistent
    background needs no facts at all: the answer is ``()``.
    """
    facts = list(facts)
    background = list(background)
    network = _network_over(background + facts)
    try:
        if counters is not None:
            counters.solver_consistency_checks += 1
        undo = _UndoLog()
        culprit = network._push(undo, _seeds(network, background + facts))
        undo.rollback(network)
        if culprit is None:
            raise AssertionSpecError(
                "cannot minimize a conflict: the facts are consistent"
            )
        with span("solver.explain", counters=counters):
            # Junker's QX(B, B, C): probe the background first; one fact
            # alone is always consistent, so only a larger one is probed
            conflict = tuple(
                _qx(network, background, len(background) > 1, facts, counters)
            )
    finally:
        if counters is not None:
            counters.solver_propagation_steps += (
                network.counters.propagation_steps
            )
    if counters is not None:
        counters.solver_conflicts_minimized += 1
    return conflict


def _qx(
    network: AssertionNetwork,
    delta: list[Assertion],
    probe: bool,
    candidates: list[Assertion],
    counters: AnalysisCounters | None,
) -> list[Assertion]:
    """QUICKXPLAIN(base + delta, candidates): minimal culprits in candidates.

    The network holds the closure of ``base``; ``delta`` is pushed on
    top for this call and rolled back when it returns.  ``probe`` is
    False when ``delta`` cannot have made the base inconsistent (it is
    empty, or one fact alone); only a probe counts as a check.
    """
    if probe and counters is not None:
        counters.solver_consistency_checks += 1
    undo = _UndoLog()
    try:
        if network._push(undo, _seeds(network, delta)) is not None:
            return []
        if len(candidates) == 1:
            return list(candidates)
        half = len(candidates) // 2
        left, right = candidates[:half], candidates[half:]
        # Minimal culprits within `right`, assuming all of `left` holds...
        in_right = _qx(network, left, bool(left), right, counters)
        # ...then minimal culprits within `left`, assuming those hold.
        in_left = _qx(network, in_right, bool(in_right), left, counters)
        return in_left + in_right
    finally:
        undo.rollback(network)


def verify_conflict(
    conflict: Sequence[Assertion],
    *,
    background: Sequence[Assertion] = (),
    counters: AnalysisCounters | None = None,
) -> bool:
    """Check a conflict set is sufficient *and* minimal (for tests/bench).

    Sufficient: background plus the whole set is inconsistent.  Minimal:
    dropping any one member restores consistency.
    """
    conflict = list(conflict)
    background = list(background)
    if not conflict and not background:
        return False
    if is_consistent(background + conflict, counters=counters):
        return False
    for index in range(len(conflict)):
        rest = conflict[:index] + conflict[index + 1 :]
        if not is_consistent(background + rest, counters=counters):
            return False
    return True
