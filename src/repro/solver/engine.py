"""Batch propagation over assertion facts, on the network's closure kernel.

The network (:class:`~repro.assertions.network.AssertionNetwork`) derives
assertions *incrementally*: each DDA action seeds path consistency from the
one edge it changed.  This module asks the same constraint problem of a
whole fact list at once: :func:`propagate` builds a fresh network over the
facts' objects and pushes every fact through
:meth:`~repro.assertions.network.AssertionNetwork._push`, the network's one
narrow-and-propagate entry point, which narrows each fact's pair and runs
the one path-consistency loop seeded with all of them.  ``specify``,
``trial`` and QuickXplain's probes go through the same method, so the
batch fixpoint is the network's by construction.

On top of that one kernel the solver adds what a single derivation chain
cannot give: inconsistency is answered with a
:class:`~repro.errors.ConsistencyFailure` carrying a **minimal conflict
set** (see :mod:`repro.solver.explain`).  What-if questions
(:func:`explain_assertion`, suggestions) are not asked here: they run as
a rolled-back :meth:`~repro.assertions.network.AssertionNetwork.trial`
on the session's own network, which already holds the closure of every
specified fact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.assertions.assertion import Assertion, Pair, ordered_pair
from repro.assertions.composition import ALL_RELATIONS, converse_set
from repro.assertions.kinds import AssertionKind, Relation, Source, derived_kind
from repro.assertions.network import AssertionNetwork, _UndoLog
from repro.ecr.coerce import coerce_object_ref
from repro.ecr.schema import ObjectRef
from repro.errors import ConsistencyFailure
from repro.obs.metrics import AnalysisCounters
from repro.obs.trace import span
from repro.solver.explain import (
    _network_over,
    _seeds,
    is_consistent,
    minimal_conflict,
)


@dataclass
class Propagation:
    """Raw outcome of one batch propagation.

    ``domains`` maps canonical pairs to their (narrowed) feasible sets;
    pairs absent from the table are universal.  ``culprit`` is the pair
    whose domain became empty, or ``None`` on success; on failure the
    table holds it as the empty set.  ``steps`` is the kernel's
    propagation-step count for the run.
    """

    domains: dict[Pair, frozenset[Relation]]
    steps: int
    culprit: Pair | None


def _get(
    domains: dict[Pair, frozenset[Relation]],
    first: ObjectRef,
    second: ObjectRef,
) -> frozenset[Relation]:
    pair = ordered_pair(first, second)
    stored = domains.get(pair, ALL_RELATIONS)
    if pair != (first, second):
        return converse_set(stored)
    return stored


def propagate(
    facts: Sequence[Assertion],
    *,
    counters: AnalysisCounters | None = None,
) -> Propagation:
    """Close the facts on a fresh network and read back its table.

    Pure function over its inputs — the caller's network is never
    touched.  :class:`ConstraintSolver` answers from it, and the
    what-if checks in ``tests/solver`` hold the live network's trials
    against it.  The steps are added to
    ``counters.solver_propagation_steps`` only.
    """
    network = _network_over(facts)
    culprit = network._push(_UndoLog(), _seeds(network, facts))
    steps = network.counters.propagation_steps
    if counters is not None:
        counters.solver_propagation_steps += steps
    return Propagation(network.feasible_table(), steps, culprit)


def derived_from(
    domains: dict[Pair, frozenset[Relation]],
    specified_pairs: set[Pair],
) -> dict[Pair, Assertion]:
    """Derived assertions: singleton, unspecified pairs, network-style."""
    derived: dict[Pair, Assertion] = {}
    for pair, relations in domains.items():
        if len(relations) != 1 or pair in specified_pairs:
            continue
        (relation,) = relations
        kind, decided = derived_kind(relation)
        derived[pair] = Assertion(
            pair[0],
            pair[1],
            kind,
            Source.DERIVED,
            integrability_decided=decided,
        )
    return derived


@dataclass
class SolverSolution:
    """A successful fixpoint: the narrowed domains plus derived assertions."""

    facts: tuple[Assertion, ...]
    feasible: dict[Pair, frozenset[Relation]]
    derived: tuple[Assertion, ...]
    steps: int

    def feasible_between(
        self, first: ObjectRef | str, second: ObjectRef | str
    ) -> frozenset[Relation]:
        """Feasible relations between two objects, oriented first→second."""
        first = coerce_object_ref(first)
        second = coerce_object_ref(second)
        if first == second:
            return frozenset({Relation.EQ})
        return _get(self.feasible, first, second)


class ConstraintSolver:
    """Batch constraint solver over a set of asserted facts.

    Build one from raw :class:`~repro.assertions.assertion.Assertion`
    facts or :meth:`from_network`, then :meth:`solve`.  On inconsistency
    :meth:`solve` raises :class:`~repro.errors.ConsistencyFailure` whose
    ``conflict`` is a verified-minimal subset of the input facts.
    """

    def __init__(
        self,
        facts: Iterable[Assertion] = (),
        *,
        counters: AnalysisCounters | None = None,
    ) -> None:
        self.facts: list[Assertion] = list(facts)
        self.counters = counters if counters is not None else AnalysisCounters()

    @classmethod
    def from_network(
        cls,
        network: AssertionNetwork,
        extra_facts: Iterable[Assertion] = (),
    ) -> ConstraintSolver:
        """A solver over a network's specified facts (plus hypotheticals)."""
        return cls(
            list(network.specified_assertions()) + list(extra_facts),
            counters=network.counters,
        )

    def solve(self) -> SolverSolution:
        """Propagate to the fixpoint; raise on inconsistency.

        Raises
        ------
        ConsistencyFailure
            With a minimal conflict set over the input facts.
        """
        self.counters.solver_runs += 1
        with span("solver.propagate", counters=self.counters):
            outcome = propagate(self.facts, counters=self.counters)
        if outcome.culprit is not None:
            conflict = minimal_conflict(self.facts, counters=self.counters)
            raise ConsistencyFailure(conflict, subject=outcome.culprit)
        specified_pairs = {fact.pair for fact in self.facts}
        derived = derived_from(outcome.domains, specified_pairs)
        return SolverSolution(
            facts=tuple(self.facts),
            feasible=outcome.domains,
            derived=tuple(derived[pair] for pair in sorted(derived)),
            steps=outcome.steps,
        )

    def check(self, extra_facts: Iterable[Assertion] = ()) -> bool:
        """Whether the facts (plus hypotheticals) admit a solution."""
        return is_consistent(
            self.facts + list(extra_facts), counters=self.counters
        )


@dataclass(frozen=True)
class AssertionExplanation:
    """What-if analysis of one hypothetical assertion.

    ``consistent`` says whether specifying the assertion would be
    accepted.  When it would conflict, ``conflict`` is the minimal set of
    *existing* facts that clash with it (retracting any one of them makes
    the assertion admissible).  When it is safe, ``consequences`` are the
    assertions that would newly become derived.
    """

    first: ObjectRef
    second: ObjectRef
    kind: AssertionKind
    consistent: bool
    feasible_before: frozenset[Relation]
    conflict: tuple[Assertion, ...] = ()
    consequences: tuple[Assertion, ...] = field(default=())

    def repairs(self) -> list[str]:
        """Screen 9-style repair options when the assertion conflicts."""
        if self.consistent:
            return []
        options = [
            "withdraw the new assertion "
            + self.kind.describe(str(self.first), str(self.second))
        ]
        for member in self.conflict:
            if member.source is Source.DDA:
                options.append(
                    f"retract or change {member.describe()} "
                    f"(currently code {member.kind.code})"
                )
            else:
                options.append(
                    f"revise the schema structure behind {member.describe()}"
                )
        return options

    def to_wire(self) -> dict:
        return {
            "first": str(self.first),
            "second": str(self.second),
            "kind": self.kind.name,
            "kind_code": self.kind.code,
            "consistent": self.consistent,
            "feasible": sorted(rel.value for rel in self.feasible_before),
            "conflict_set": [member.to_wire() for member in self.conflict],
            "consequences": [
                member.to_wire() for member in self.consequences
            ],
            "repairs": self.repairs(),
        }


def explain_assertion(
    network: AssertionNetwork,
    first: ObjectRef | str,
    second: ObjectRef | str,
    kind: AssertionKind | int,
) -> AssertionExplanation:
    """Explain what specifying ``kind`` on a pair would do, without doing it.

    The verdict and the consequences come from one
    :meth:`~repro.assertions.network.AssertionNetwork.trial` on the
    network, which it rolls back; only a conflict pays for the
    nested-undo probes of :func:`~repro.solver.explain.minimal_conflict`
    on a network of their own.
    """
    if isinstance(kind, int):
        kind = AssertionKind.from_code(kind)
    first = coerce_object_ref(first)
    second = coerce_object_ref(second)
    feasible_before = network.feasible(first, second)  # validates membership
    counters = network.counters
    with span("solver.explain", counters=counters):
        counters.solver_runs += 1
        consequences = network.trial(first, second, kind)
        if consequences is None:
            candidate = Assertion(first, second, kind, note="hypothetical")
            conflict = minimal_conflict(
                network.specified_assertions(),
                background=[candidate],
                counters=counters,
            )
            return AssertionExplanation(
                first,
                second,
                kind,
                consistent=False,
                feasible_before=feasible_before,
                conflict=conflict,
            )
        return AssertionExplanation(
            first,
            second,
            kind,
            consistent=True,
            feasible_before=feasible_before,
            consequences=consequences,
        )
