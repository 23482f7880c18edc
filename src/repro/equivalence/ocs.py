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

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ecr.objects import ObjectClass, ObjectKind
from repro.ecr.schema import ObjectRef
from repro.errors import EquivalenceError
from repro.kernel.bus import weak_callback
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
        #: weak: the registry caches this view, so it owns the view
        self._registry_ref = weakref.ref(registry)
        self.first_schema = first_schema
        self.second_schema = second_schema
        self.kind_filter = kind_filter
        #: memoized cell values: row -> one slot per column position
        #: (``None`` until counted), dropped selectively on registry changes
        self._cells: dict[ObjectRef, list[int | None]] = {}
        #: memoized per-object attribute counts (shape-stable between refreshes)
        self._attribute_counts: dict[ObjectRef, int] = {}
        #: bumped on every invalidation that touched this matrix
        self._generation = 0
        #: derived-view memo (e.g. the ranked Screen 8 list); cleared whenever
        #: any cell of this matrix is invalidated
        self.view_cache: dict[object, object] = {}
        self._reselect()
        self._subscription = registry.subscribe(
            weak_callback(self, OcsMatrix._on_registry_change)
        )

    @property
    def _registry(self) -> "EquivalenceRegistry":
        registry = self._registry_ref()
        if registry is None:
            raise EquivalenceError("the view's registry has been freed")
        return registry

    def close(self) -> None:
        """Stop tracking registry changes (the view goes stale)."""
        self._subscription.cancel()

    def _reselect(self) -> None:
        self._rows = self._select(self.first_schema)
        self._columns = self._select(self.second_schema)
        self._row_set = set(self._rows)
        #: column -> its position in every row's cell list
        self._column_index = {
            column: position for position, column in enumerate(self._columns)
        }

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
        affected = {ObjectRef(schema, name) for schema, name in change.objects}
        if structural:
            # an evolution edit added/dropped a structure: re-derive the
            # rows/columns, but only the listed objects' cells can differ;
            # the other columns' cells move to their new positions
            old_index = self._column_index
            self._reselect()
            moves = [
                None if column in affected else old_index.get(column)
                for column in self._columns
            ]
            self._cells = {
                row: [None if at is None else cells[at] for at in moves]
                for row, cells in self._cells.items()
                if row in self._row_set and row not in affected
            }
        else:
            dirty_rows = affected & self._row_set
            dirty_columns = [
                self._column_index[ref]
                for ref in affected
                if ref in self._column_index
            ]
            if not dirty_rows and not dirty_columns:
                return
            for row in dirty_rows:
                self._cells.pop(row, None)
            for cells in self._cells.values():
                for at in dirty_columns:
                    cells[at] = None
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
        """Equivalent-attribute count for one object pair.

        A pair off the matrix (not a row by a column) is counted afresh
        on every call and never memoized.
        """
        counters = self._registry.counters
        position = self._column_index.get(column)
        if position is None or row not in self._row_set:
            counters.ocs_cells_recomputed += 1
            return len(self._class_numbers(row) & self._class_numbers(column))
        cells = self._cells.get(row)
        if cells is None:
            cells = self._cells[row] = [None] * len(self._columns)
        value = cells[position]
        if value is not None:
            counters.ocs_cache_hits += 1
            return value
        value = len(self._class_numbers(row) & self._class_numbers(column))
        counters.ocs_cells_recomputed += 1
        cells[position] = value
        return value

    def _class_numbers(self, ref: ObjectRef) -> set[int]:
        return self._registry.object_class_numbers((ref.schema, ref.object_name))

    def _counted_rows(self) -> list[list[int]]:
        """Every row's cell list, in row order, with no slot left uncounted.

        The lists are the memo itself: callers copy before handing them
        out.  Each object's class-number set is read at most once per
        call, and only for an object with a cell to count.
        """
        columns = self._columns
        width = len(columns)
        column_numbers: list[set[int] | None] = [None] * width
        recomputed = 0
        counted: list[list[int]] = []
        for row in self._rows:
            cells = self._cells.get(row)
            if cells is None:
                cells = self._cells[row] = [None] * width
            if None in cells:
                row_numbers = self._class_numbers(row)
                for position, value in enumerate(cells):
                    if value is None:
                        numbers = column_numbers[position]
                        if numbers is None:
                            numbers = column_numbers[position] = (
                                self._class_numbers(columns[position])
                            )
                        cells[position] = len(row_numbers & numbers)
                        recomputed += 1
            counted.append(cells)  # type: ignore[arg-type]
        counters = self._registry.counters
        counters.ocs_cells_recomputed += recomputed
        counters.ocs_cache_hits += width * len(counted) - recomputed
        return counted

    def entry(self, row: ObjectRef, column: ObjectRef) -> OcsEntry:
        return OcsEntry(row, column, self.count(row, column))

    def entries(self, include_zero: bool = False) -> list[OcsEntry]:
        """All matrix entries row-major; zero-similarity pairs are skipped
        unless ``include_zero`` is set (Screen 8 only shows candidates)."""
        with span("phase2.ocs.recompute", counters=self._registry.counters):
            return [
                OcsEntry(row, column, value)
                for row, cells in zip(self._rows, self._counted_rows())
                for column, value in zip(self._columns, cells)
                if value > 0 or include_zero
            ]

    def as_counts(self) -> list[list[int]]:
        """Dense count matrix (row-major) for numeric consumers."""
        with span("phase2.ocs.recompute", counters=self._registry.counters):
            return [list(cells) for cells in self._counted_rows()]

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
