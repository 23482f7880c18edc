"""Resemblance functions over object-class pairs.

The paper's core heuristic is the **attribute ratio**::

    ratio = e / (e + s)

where ``e`` is the number of equivalent attributes between the two object
classes and ``s`` the number of attributes of the smaller object class.
*"Thus a value of 0.5 for attribute ratio specifies that every attribute in
one object class has an equivalent attribute in the other object class."*
(Screen 8 shows 0.5000 for Department/Department and Student/Grad_student,
0.3333 for Student/Faculty.)

The future-work section sketches further resemblance functions in the style
of de Souza's SIS ("to have similar names", "to have identifiers with
similar names") combined as a weighted sum; we implement those too so the
ablation benchmarks can compare orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Protocol, Sequence

from repro.ecr.objects import ObjectClass, ObjectKind
from repro.ecr.schema import ObjectRef
from repro.equivalence.registry import EquivalenceRegistry
from repro.equivalence.synonyms import SynonymDictionary
from repro.errors import EquivalenceError


def attribute_ratio(equivalent: int, first_count: int, second_count: int) -> float:
    """The paper's attribute ratio for one object pair.

    Parameters
    ----------
    equivalent:
        Number of equivalent attributes between the two object classes
        (the OCS entry).
    first_count, second_count:
        Numbers of attributes of the two object classes.

    Returns 0.0 when either object class has no attributes.
    """
    if equivalent < 0:
        raise EquivalenceError(f"negative equivalent count {equivalent}")
    smaller = min(first_count, second_count)
    if equivalent > smaller:
        raise EquivalenceError(
            f"equivalent count {equivalent} exceeds the smaller "
            f"object's attribute count {smaller}"
        )
    if smaller == 0 or equivalent == 0:
        return 0.0
    return equivalent / (equivalent + smaller)


class ResemblanceFunction(Protocol):
    """A scorer of object-class pairs; higher means more resemblant."""

    def score(
        self,
        first_ref: ObjectRef,
        first: ObjectClass,
        second_ref: ObjectRef,
        second: ObjectClass,
    ) -> float:
        """Score the pair in [0, 1]."""
        ...  # pragma: no cover - protocol


@dataclass
class AttributeRatio:
    """The paper's resemblance function, read off the registry's OCS matrix.

    The equivalent-attribute count is the memoized cell of
    :meth:`EquivalenceRegistry.ocs
    <repro.equivalence.registry.EquivalenceRegistry.ocs>` between the
    pair's schemas (the relationship-set matrix for relationship sets).
    """

    registry: EquivalenceRegistry

    def score(
        self,
        first_ref: ObjectRef,
        first: ObjectClass,
        second_ref: ObjectRef,
        second: ObjectClass,
    ) -> float:
        kind = (
            ObjectKind.RELATIONSHIP
            if first.kind is ObjectKind.RELATIONSHIP
            else None
        )
        ocs = self.registry.ocs(first_ref.schema, second_ref.schema, kind)
        return attribute_ratio(
            ocs.count(first_ref, second_ref),
            len(first.attributes),
            len(second.attributes),
        )


@lru_cache(maxsize=4096)
def name_similarity(first: str, second: str) -> float:
    """Similarity of two identifiers in [0, 1].

    Uses a normalised Levenshtein distance over lower-cased names with
    underscores removed, so ``Grad_student`` vs ``GradStudent`` scores 1.0.
    This is the "string matching heuristic" of the future-work section.
    Memoized: the suggestion pass scores the same names on every call.
    """
    a = first.lower().replace("_", "")
    b = second.lower().replace("_", "")
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    distance = _levenshtein(a, b)
    return 1.0 - distance / max(len(a), len(b))


def _levenshtein(a: str, b: str) -> int:
    """Classic two-row Levenshtein edit distance."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for row, char_a in enumerate(a, start=1):
        current = [row]
        for col, char_b in enumerate(b, start=1):
            cost = 0 if char_a == char_b else 1
            current.append(
                min(previous[col] + 1, current[col - 1] + 1, previous[col - 1] + cost)
            )
        previous = current
    return previous[-1]


@dataclass
class NameResemblance:
    """Scores pairs by the string similarity of their names.

    With a synonym dictionary, names declared synonymous score 1.0
    regardless of spelling (``Worker`` vs ``Employee``).
    """

    synonyms: SynonymDictionary | None = None

    def score(
        self,
        first_ref: ObjectRef,
        first: ObjectClass,
        second_ref: ObjectRef,
        second: ObjectClass,
    ) -> float:
        if self.synonyms is not None:
            if self.synonyms.are_synonyms(first.name, second.name):
                return 1.0
            if self.synonyms.are_antonyms(first.name, second.name):
                return 0.0
        return name_similarity(first.name, second.name)


@dataclass
class KeyResemblance:
    """SIS's "identifiers with similar names": similarity of key attributes."""

    def score(
        self,
        first_ref: ObjectRef,
        first: ObjectClass,
        second_ref: ObjectRef,
        second: ObjectClass,
    ) -> float:
        keys_a = first.key_attributes()
        keys_b = second.key_attributes()
        if not keys_a or not keys_b:
            return 0.0
        best = 0.0
        for key_a in keys_a:
            for key_b in keys_b:
                best = max(best, name_similarity(key_a.name, key_b.name))
        return best


@dataclass
class DomainResemblance:
    """Fraction of attributes (of the smaller side) with a same-kind partner."""

    def score(
        self,
        first_ref: ObjectRef,
        first: ObjectClass,
        second_ref: ObjectRef,
        second: ObjectClass,
    ) -> float:
        if not first.attributes or not second.attributes:
            return 0.0
        smaller, larger = first.attributes, second.attributes
        if len(larger) < len(smaller):
            smaller, larger = larger, smaller
        kinds = [attribute.domain.kind for attribute in larger]
        matched = 0
        pool = list(kinds)
        for attribute in smaller:
            if attribute.domain.kind in pool:
                pool.remove(attribute.domain.kind)
                matched += 1
        return matched / len(smaller)


@dataclass
class WeightedResemblance:
    """Weighted sum of resemblance functions (the future-work combination).

    Weights are normalised, so only their relative sizes matter.
    """

    functions: Sequence[ResemblanceFunction]
    weights: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.functions) != len(self.weights):
            raise EquivalenceError(
                f"{len(self.functions)} functions but {len(self.weights)} weights"
            )
        if not self.functions:
            raise EquivalenceError("weighted resemblance needs at least one function")
        total = float(sum(self.weights))
        if total <= 0:
            raise EquivalenceError("weights must sum to a positive value")
        self.weights = [weight / total for weight in self.weights]

    def score(
        self,
        first_ref: ObjectRef,
        first: ObjectClass,
        second_ref: ObjectRef,
        second: ObjectClass,
    ) -> float:
        return sum(
            weight * function.score(first_ref, first, second_ref, second)
            for function, weight in zip(self.functions, self.weights)
        )
