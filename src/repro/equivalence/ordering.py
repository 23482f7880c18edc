"""Ordered candidate object pairs for assertion collection (Screen 8).

The OCS matrix "contains information to generate an ordered list of object
class pairs corresponding to their likelihood of being integrable with
stronger assertions".  We order pairs by descending attribute ratio, then
alphabetically by the qualified object names, so that the list is total and
deterministic — this reproduces Screen 8 exactly, where at equal ratio
``sc1.Department``/``sc2.Department`` precedes
``sc1.Student``/``sc2.Grad_student``.

The ranked list is memoized on the cached OCS matrix: repeated calls with
an unchanged registry return the cached list, and after a mutation only the
invalidated cells are recounted before the (cheap) re-sort.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ecr.objects import ObjectKind
from repro.ecr.schema import ObjectRef
from repro.equivalence.registry import EquivalenceRegistry
from repro.equivalence.resemblance import attribute_ratio
from repro.obs.trace import span


@dataclass(frozen=True)
class CandidatePair:
    """One row of Screen 8: an object pair with its attribute ratio."""

    first: ObjectRef
    second: ObjectRef
    equivalent_attributes: int
    attribute_ratio: float

    def __str__(self) -> str:
        return f"{self.first}  {self.second}  {self.attribute_ratio:.4f}"


def ordered_object_pairs(
    registry: EquivalenceRegistry,
    first_schema: str,
    second_schema: str,
    *,
    kind_filter: ObjectKind | None = None,
    include_zero: bool = False,
) -> list[CandidatePair]:
    """The ranked candidate list for two schemas.

    Parameters
    ----------
    registry:
        The equivalence registry holding both schemas and the DDA's
        attribute equivalences.
    first_schema, second_schema:
        Names of the two schemas being integrated.
    kind_filter:
        Keyword-only.  ``None`` ranks object classes (entity sets and
        categories, the paper's first subphase); ``ObjectKind.RELATIONSHIP``
        ranks relationship sets (the second subphase).
    include_zero:
        Keyword-only.  Whether to include pairs with no equivalent
        attributes.  Screen 8 shows only genuine candidates, so the default
        is off; baselines that review every pair set it.
    """
    ocs = registry.ocs(first_schema, second_schema, kind_filter)
    cache_key = ("ranked", bool(include_zero))
    cached = ocs.view_cache.get(cache_key)
    if cached is not None:
        registry.counters.ordering_cache_hits += 1
        return list(cached)  # defensive copy: callers may sort/mutate
    with span("phase2.ordering.rank", counters=registry.counters):
        counts = ocs.as_counts()
        rows, columns = ocs.rows, ocs.columns
        row_sizes = [ocs.attribute_count(row) for row in rows]
        column_sizes = [ocs.attribute_count(column) for column in columns]
        column_order = sorted(
            range(len(columns)), key=lambda at: columns[at].object_name
        )
        pairs: list[CandidatePair] = []
        for row_at in sorted(range(len(rows)), key=lambda at: rows[at].object_name):
            row, row_size, cells = rows[row_at], row_sizes[row_at], counts[row_at]
            for column_at in column_order:
                value = cells[column_at]
                if value or include_zero:
                    # most cells are zero, whose ratio is 0.0: skipping
                    # the call is a fifth of a cold ranking
                    ratio = (
                        attribute_ratio(value, row_size, column_sizes[column_at])
                        if value
                        else 0.0
                    )
                    pairs.append(
                        CandidatePair(row, columns[column_at], value, ratio)
                    )
        # every row is of the first schema and every column of the
        # second, so the walk above is in pair name order, which the
        # stable sort keeps within one ratio
        pairs.sort(key=lambda pair: -pair.attribute_ratio)
        ocs.view_cache[cache_key] = pairs
        registry.counters.ordering_rebuilds += 1
        return list(pairs)


def render_screen8_rows(pairs: list[CandidatePair]) -> str:
    """Render candidate pairs in the column layout of Screen 8."""
    lines = [
        f"{'Schema_Name1.Obj_Class1':<28}{'Schema_Name2.Obj_Class2':<28}"
        f"{'ATTRIBUTE RATIO':>16}"
    ]
    for pair in pairs:
        lines.append(
            f"{str(pair.first):<28}{str(pair.second):<28}"
            f"{pair.attribute_ratio:>16.4f}"
        )
    return "\n".join(lines) + "\n"
