"""The Object Class Similarity (OCS) matrix.

The paper: *"Upon exiting this phase, the tool derives an Object Class
Similarity (OCS) matrix from the ACS matrix, where each element of the
matrix specifies the number of equivalent attributes between two objects
specified by the row and column order."*

An entry counts the equivalence classes that span both objects (one class
containing an attribute of each side counts once, so three-way classes do
not double-count).  The OCS drives the ordered candidate list of Screen 8.

The matrix is a **memoized view** over the registry: cell values are cached
and, via the registry's change events, only the cells whose row or column
was touched by a mutation are invalidated.  Obtain matrices through
:meth:`EquivalenceRegistry.ocs` — that returns one long-lived cached view
per schema pair; constructing :class:`OcsMatrix` directly builds a fresh,
unshared cache (it still invalidates correctly).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ecr.objects import ObjectClass, ObjectKind
from repro.ecr.schema import ObjectRef
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.equivalence.registry import EquivalenceRegistry, RegistryChange


@dataclass(frozen=True)
class OcsEntry:
    """One entry of the OCS matrix: an object pair plus its similarity count."""

    row: ObjectRef
    column: ObjectRef
    equivalent_attributes: int

    def __str__(self) -> str:
        return f"{self.row} x {self.column}: {self.equivalent_attributes}"


class OcsMatrix:
    """OCS matrix between two registered schemas.

    ``kind_filter`` selects which structures form the rows/columns:
    by default object classes (entity sets and categories), matching the
    paper's first subphase; pass ``ObjectKind.RELATIONSHIP`` for the
    relationship-set subphase.
    """

    def __init__(
        self,
        registry: "EquivalenceRegistry",
        first_schema: str,
        second_schema: str,
        *,
        kind_filter: ObjectKind | None = None,
    ) -> None:
        self._registry = registry
        self.first_schema = first_schema
        self.second_schema = second_schema
        self.kind_filter = kind_filter
        #: memoized cell values, dropped selectively on registry changes
        self._cells: dict[tuple[ObjectRef, ObjectRef], int] = {}
        #: memoized per-object attribute counts (shape-stable between refreshes)
        self._attribute_counts: dict[ObjectRef, int] = {}
        #: bumped on every invalidation that touched this matrix
        self._generation = 0
        #: derived-view memo (e.g. the ranked Screen 8 list); cleared whenever
        #: any cell of this matrix is invalidated
        self.view_cache: dict[object, object] = {}
        self._reselect()
        self._subscription = registry.subscribe(self._on_registry_change)

    def close(self) -> None:
        """Stop tracking registry changes (the view goes stale)."""
        self._subscription.cancel()

    def _reselect(self) -> None:
        self._rows = self._select(self.first_schema)
        self._columns = self._select(self.second_schema)
        self._row_set = set(self._rows)
        self._column_set = set(self._columns)

    def _select(self, schema_name: str) -> list[ObjectRef]:
        schema = self._registry.schema(schema_name)
        if self.kind_filter is ObjectKind.RELATIONSHIP:
            chosen: list[ObjectClass] = list(schema.relationship_sets())
        elif self.kind_filter is None:
            chosen = list(schema.object_classes())
        else:
            chosen = [
                structure
                for structure in schema.object_classes()
                if structure.kind is self.kind_filter
            ]
        return [ObjectRef(schema_name, structure.name) for structure in chosen]

    # -- invalidation ---------------------------------------------------------

    @property
    def generation(self) -> int:
        """Bumped whenever a registry change invalidated part of this view."""
        return self._generation

    def _on_registry_change(self, change: "RegistryChange") -> None:
        structural = (
            self.first_schema in change.schemas
            or self.second_schema in change.schemas
        )
        if structural and change.kind != "evolve":
            # the schema's shape changed wholesale: rows/columns must be
            # re-derived and nothing cached can be trusted
            self._reselect()
            self._cells.clear()
            self._attribute_counts.clear()
            self.view_cache.clear()
            self._generation += 1
            return
        if structural:
            # an evolution edit added/dropped a structure: re-derive the
            # rows/columns, but only the listed objects' cells can differ
            self._reselect()
        affected = {ObjectRef(schema, name) for schema, name in change.objects}
        dirty_rows = affected & self._row_set
        dirty_columns = affected & self._column_set
        if not structural and not dirty_rows and not dirty_columns:
            return
        self._cells = {
            key: value
            for key, value in self._cells.items()
            if key[0] in self._row_set
            and key[1] in self._column_set
            and key[0] not in dirty_rows
            and key[1] not in dirty_columns
        }
        for ref in affected:
            # attribute add/drop changes the per-object count memo too
            self._attribute_counts.pop(ref, None)
        self.view_cache.clear()
        self._generation += 1

    # -- structure ------------------------------------------------------------

    @property
    def rows(self) -> list[ObjectRef]:
        """Structures of the first schema, in declaration order."""
        return list(self._rows)

    @property
    def columns(self) -> list[ObjectRef]:
        """Structures of the second schema, in declaration order."""
        return list(self._columns)

    def attribute_count(self, ref: ObjectRef) -> int:
        """Number of attributes of one row/column object (memoized)."""
        cached = self._attribute_counts.get(ref)
        if cached is None:
            cached = len(
                self._registry.schema(ref.schema).get(ref.object_name).attributes
            )
            self._attribute_counts[ref] = cached
        return cached

    # -- cells ----------------------------------------------------------------

    def count(self, row: ObjectRef, column: ObjectRef) -> int:
        """Equivalent-attribute count for one object pair."""
        return self._count(row, column, {})

    def _count(
        self,
        row: ObjectRef,
        column: ObjectRef,
        numbers: dict[ObjectRef, set[int]],
    ) -> int:
        """One cell through the memo.

        ``numbers`` holds each object's class-number set for the span of
        one call, so a whole-matrix pass builds it once per object
        rather than twice per cell.
        """
        key = (row, column)
        counters = self._registry.counters
        cached = self._cells.get(key)
        if cached is not None:
            counters.ocs_cache_hits += 1
            return cached
        for ref in key:
            if ref not in numbers:
                numbers[ref] = self._registry.object_class_numbers(
                    (ref.schema, ref.object_name)
                )
        value = len(numbers[row] & numbers[column])
        counters.ocs_cells_recomputed += 1
        self._cells[key] = value
        return value

    def entry(self, row: ObjectRef, column: ObjectRef) -> OcsEntry:
        return OcsEntry(row, column, self.count(row, column))

    def entries(self, include_zero: bool = False) -> list[OcsEntry]:
        """All matrix entries row-major; zero-similarity pairs are skipped
        unless ``include_zero`` is set (Screen 8 only shows candidates)."""
        numbers: dict[ObjectRef, set[int]] = {}
        with span("phase2.ocs.recompute", counters=self._registry.counters):
            found: list[OcsEntry] = []
            for row in self._rows:
                for column in self._columns:
                    value = self._count(row, column, numbers)
                    if value > 0 or include_zero:
                        found.append(OcsEntry(row, column, value))
            return found

    def as_counts(self) -> list[list[int]]:
        """Dense count matrix (row-major) for numeric consumers."""
        numbers: dict[ObjectRef, set[int]] = {}
        with span("phase2.ocs.recompute", counters=self._registry.counters):
            return [
                [self._count(row, column, numbers) for column in self._columns]
                for row in self._rows
            ]

    def render(self) -> str:
        """Human-readable rendering used by the tool's debug view."""
        header = "OCS %s x %s" % (self.first_schema, self.second_schema)
        lines = [header, "=" * len(header)]
        column_names = [column.object_name[:12] for column in self._columns]
        lines.append(" " * 22 + " ".join(f"{name:>12.12}" for name in column_names))
        for row, counts in zip(self._rows, self.as_counts()):
            cells = " ".join(f"{count:>12}" for count in counts)
            lines.append(f"{str(row):<22.22}{cells}")
        return "\n".join(lines) + "\n"
