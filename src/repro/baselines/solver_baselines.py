"""The oracles the batch solver is checked against.

``repro.solver`` recomputes in one batch run what :class:`AssertionNetwork`
derives incrementally; these drivers run the network over a raw fact list
so the Hypothesis suite and ``benchmarks/record_solver.py`` can compare the
batch and the specify-at-a-time answers fact-for-fact:

* :func:`closure_oracle` — feed facts into a fresh network one at a
  time (the tool's Screen 8 path) and report its derived assertions,
  feasible table and propagation-step count;
* the solver side lives in :class:`repro.solver.ConstraintSolver`.

On conflict-free inputs the two must agree exactly; on inconsistent
inputs the oracle's :class:`~repro.errors.ConflictError` and the
solver's :class:`~repro.errors.ConsistencyFailure` must co-occur.

:func:`naive_closure` is the independent oracle for the network itself:
a deliberately naive all-triangles path-consistency fixpoint over
frozensets, built on :func:`~repro.assertions.composition.compose_sets`
alone, so it shares no code with the closure kernel that both the network
and the solver run on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.assertions.assertion import Assertion, Pair, ordered_pair
from repro.assertions.composition import (
    ALL_RELATIONS,
    compose_sets,
    converse_set,
)
from repro.assertions.kinds import AssertionKind, Relation
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import ObjectRef
from repro.errors import ConflictError
from repro.obs.metrics import AnalysisCounters


@dataclass
class OracleOutcome:
    """What the incremental network made of a fact sequence."""

    network: AssertionNetwork
    derived: dict[Pair, Assertion]
    feasible: dict[Pair, frozenset[Relation]]
    propagation_steps: int
    conflict: ConflictError | None = None
    #: index into the fact sequence of the rejected fact, if any
    conflict_index: int | None = None
    accepted: list[Assertion] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return self.conflict is None


def derived_keys(derived: dict[Pair, Assertion]) -> set[tuple[Pair, int]]:
    """Comparable (pair, kind-code) view of a derived-assertion table."""
    return {
        (pair, assertion.kind.code) for pair, assertion in derived.items()
    }


def closure_oracle(
    objects: Iterable[ObjectRef],
    facts: Sequence[Assertion],
    *,
    stop_on_conflict: bool = True,
) -> OracleOutcome:
    """Drive a fresh network through the facts, one specify at a time.

    With ``stop_on_conflict`` (the default) the first rejected fact ends
    the run, mirroring the solver's all-or-nothing batch answer; without
    it, rejected facts are skipped and the rest still commit, which the
    benchmark uses to count how many contradictions the oracle can see.
    """
    counters = AnalysisCounters()
    network = AssertionNetwork(counters=counters)
    for ref in objects:
        network.add_object(ref)
    outcome = OracleOutcome(
        network=network, derived={}, feasible={}, propagation_steps=0
    )
    for index, fact in enumerate(facts):
        try:
            accepted = network.specify(
                fact.first, fact.second, fact.kind, fact.source, fact.note
            )
        except ConflictError as exc:
            if outcome.conflict is None:
                outcome.conflict = exc
                outcome.conflict_index = index
            if stop_on_conflict:
                break
        else:
            outcome.accepted.append(accepted)
    outcome.derived = {
        assertion.pair: assertion
        for assertion in network.derived_assertions()
    }
    outcome.feasible = dict(network.feasible_table())
    outcome.propagation_steps = counters.propagation_steps
    return outcome


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
