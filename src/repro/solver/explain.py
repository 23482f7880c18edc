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
exist).  Each consistency probe is one from-scratch batch propagation —
cheap, because :func:`repro.solver.engine.propagate` is a pure function.
"""

from __future__ import annotations

from typing import Sequence

from repro.assertions.assertion import Assertion
from repro.errors import AssertionSpecError
from repro.obs.metrics import AnalysisCounters
from repro.obs.trace import span


def is_consistent(
    facts: Sequence[Assertion],
    *,
    counters: AnalysisCounters | None = None,
) -> bool:
    """Whether a fact set admits a fixpoint with no empty feasible set."""
    from repro.solver.engine import propagate

    if counters is not None:
        counters.solver_consistency_checks += 1
    return propagate(facts, counters=counters).culprit is None


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
    if is_consistent(background + facts, counters=counters):
        raise AssertionSpecError(
            "cannot minimize a conflict: the facts are consistent"
        )
    with span("solver.explain", counters=counters):
        # Junker's QX(B, B, C): probe the background first; one fact
        # alone is always consistent, so only a larger one is probed
        conflict = tuple(_qx(background, len(background) > 1, facts, counters))
    if counters is not None:
        counters.solver_conflicts_minimized += 1
    return conflict


def _qx(
    base: list[Assertion],
    delta_nonempty: bool,
    candidates: list[Assertion],
    counters: AnalysisCounters | None,
) -> list[Assertion]:
    """QUICKXPLAIN(base, candidates): minimal culprit subset of candidates.

    ``delta_nonempty`` is True when the caller just moved facts into
    ``base``; only then can ``base`` alone have become inconsistent,
    which lets the trivial-consistency probe be skipped otherwise.
    """
    if delta_nonempty and not is_consistent(base, counters=counters):
        return []
    if len(candidates) == 1:
        return list(candidates)
    half = len(candidates) // 2
    left, right = candidates[:half], candidates[half:]
    # Minimal culprits within `right`, assuming all of `left` holds...
    in_right = _qx(base + left, bool(left), right, counters)
    # ...then minimal culprits within `left`, assuming those hold.
    in_left = _qx(base + in_right, bool(in_right), left, counters)
    return in_left + in_right


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
