"""Ranked equivalence suggestions, trial-propagated for safety.

The paper's Screen 8 only *orders* candidate pairs by attribute ratio;
the DDA still hand-enumerates every equivalence.  This pass turns that
into confirm-not-enumerate: candidate object pairs are scored by a
weighted blend of name, attribute-ratio, key, domain and cardinality
resemblance, and each ranked candidate is **trial-propagated** on the
session's own network (:meth:`AssertionNetwork.trial
<repro.assertions.network.AssertionNetwork.trial>`: a hypothetical
EQUALS narrowed, propagated from and rolled back) so the screen can
label it ``safe`` — accepting it cannot conflict — or ``conflicting``,
with the minimal set of existing facts it clashes with.  The attribute
ratio reads its equivalent-attribute count off the memoized OCS matrix
(:class:`~repro.equivalence.resemblance.AttributeRatio`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import AssertionKind
from repro.assertions.network import AssertionNetwork
from repro.ecr.objects import ObjectClass
from repro.ecr.relationships import RelationshipSet
from repro.ecr.schema import ObjectRef
from repro.equivalence.registry import EquivalenceRegistry
from repro.equivalence.resemblance import (
    AttributeRatio,
    DomainResemblance,
    KeyResemblance,
    NameResemblance,
)
from repro.obs.metrics import AnalysisCounters
from repro.obs.trace import span
from repro.solver.explain import minimal_conflict

#: Relative weights of the scoring components (normalised below).
SCORE_WEIGHTS: dict[str, float] = {
    "name": 0.35,
    "attribute_ratio": 0.25,
    "key": 0.15,
    "domain": 0.15,
    "cardinality": 0.10,
}


@dataclass(frozen=True)
class SolverSuggestion:
    """One ranked candidate equivalence, labelled by trial propagation.

    ``status`` is ``"safe"`` (asserting EQUALS derives no contradiction)
    or ``"conflicting"`` (it would be rejected; ``conflict`` then holds
    the minimal set of existing facts it clashes with).  ``components``
    are the individual resemblance scores behind ``score``.
    """

    first: ObjectRef
    second: ObjectRef
    kind: AssertionKind
    score: float
    components: dict[str, float]
    status: str
    conflict: tuple[Assertion, ...] = field(default=())

    @property
    def safe(self) -> bool:
        return self.status == "safe"

    def describe(self) -> str:
        """One Screen line, e.g. ``sc1.Student = sc2.Pupil (0.87, safe)``."""
        return (
            f"{self.kind.describe(str(self.first), str(self.second))} "
            f"[score {self.score:.4f}, {self.status}]"
        )

    def to_wire(self) -> dict:
        wire = {
            "first": str(self.first),
            "second": str(self.second),
            "kind": self.kind.name,
            "kind_code": self.kind.code,
            "score": round(self.score, 6),
            "components": {
                name: round(value, 6)
                for name, value in sorted(self.components.items())
            },
            "status": self.status,
        }
        if self.conflict:
            wire["conflict_set"] = [
                member.to_wire() for member in self.conflict
            ]
        return wire


def _cardinality_resemblance(first: ObjectClass, second: ObjectClass) -> float:
    """Structural-arity similarity in [0, 1].

    Relationship sets compare participation cardinalities positionally
    (exact-match fraction over the longer leg list); entity sets and
    categories fall back to the attribute-count ratio, the only notion
    of "size" they carry.
    """
    if isinstance(first, RelationshipSet) and isinstance(second, RelationshipSet):
        legs_a = [
            (p.cardinality.min, p.cardinality.max) for p in first.participations
        ]
        legs_b = [
            (p.cardinality.min, p.cardinality.max) for p in second.participations
        ]
        if not legs_a or not legs_b:
            return 0.0
        matched = sum(1 for a, b in zip(legs_a, legs_b) if a == b)
        return matched / max(len(legs_a), len(legs_b))
    count_a, count_b = len(first.attributes), len(second.attributes)
    if not count_a or not count_b:
        return 0.0
    return min(count_a, count_b) / max(count_a, count_b)


def score_candidate(
    registry: EquivalenceRegistry,
    first_ref: ObjectRef,
    first: ObjectClass,
    second_ref: ObjectRef,
    second: ObjectClass,
) -> dict[str, float]:
    """The per-component resemblance scores for one candidate pair."""
    return {
        "name": NameResemblance().score(first_ref, first, second_ref, second),
        "attribute_ratio": AttributeRatio(registry).score(
            first_ref, first, second_ref, second
        ),
        "key": KeyResemblance().score(first_ref, first, second_ref, second),
        "domain": DomainResemblance().score(
            first_ref, first, second_ref, second
        ),
        "cardinality": _cardinality_resemblance(first, second),
    }


def suggest_equivalence_assertions(
    registry: EquivalenceRegistry,
    network: AssertionNetwork,
    first_schema: str,
    second_schema: str,
    *,
    relationships: bool = False,
    limit: int = 10,
    threshold: float = 0.0,
    counters: AnalysisCounters | None = None,
) -> list[SolverSuggestion]:
    """Ranked, safety-labelled EQUALS candidates across two schemas.

    Only pairs the network still considers undetermined (more than one
    feasible relation) are candidates — pairs the DDA already decided, or
    that derivation has pinned down, need no suggestion.  Results are
    sorted by descending score, ties broken by name.
    """
    first = registry.schema(first_schema)
    second = registry.schema(second_schema)
    if relationships:
        pool_a: list[ObjectClass] = list(first.relationship_sets())
        pool_b: list[ObjectClass] = list(second.relationship_sets())
    else:
        pool_a = list(first.entity_sets()) + list(first.categories())
        pool_b = list(second.entity_sets()) + list(second.categories())

    with span("solver.suggest", counters=counters):
        scored: list[tuple[float, ObjectRef, ObjectRef, dict[str, float]]] = []
        total_weight = sum(SCORE_WEIGHTS.values())
        for object_a in pool_a:
            ref_a = ObjectRef(first.name, object_a.name)
            for object_b in pool_b:
                ref_b = ObjectRef(second.name, object_b.name)
                if not network.is_undetermined(ref_a, ref_b):
                    continue
                components = score_candidate(
                    registry, ref_a, object_a, ref_b, object_b
                )
                score = (
                    sum(
                        SCORE_WEIGHTS[name] * value
                        for name, value in components.items()
                    )
                    / total_weight
                )
                if score <= threshold:
                    continue
                scored.append((score, ref_a, ref_b, components))
        scored.sort(key=lambda entry: (-entry[0], entry[1], entry[2]))
        del scored[limit:]

        suggestions: list[SolverSuggestion] = []
        for score, ref_a, ref_b, components in scored:
            if counters is not None:
                counters.solver_candidates_checked += 1
            if network.trial(ref_a, ref_b, AssertionKind.EQUALS) is not None:
                status, conflict = "safe", ()
            else:
                status = "conflicting"
                candidate = Assertion(
                    ref_a, ref_b, AssertionKind.EQUALS, note="suggested"
                )
                conflict = minimal_conflict(
                    network.specified_assertions(),
                    background=[candidate],
                    counters=counters,
                )
            suggestions.append(
                SolverSuggestion(
                    first=ref_a,
                    second=ref_b,
                    kind=AssertionKind.EQUALS,
                    score=score,
                    components=components,
                    status=status,
                    conflict=conflict,
                )
            )
    return suggestions
