"""The Attribute Class Similarity (ACS) matrix.

The paper: *"The tool maintains a structure called Attribute Class
Similarity (ACS) matrix, which maintains all the equivalence class
definitions given in this phase."*  We expose it as a queryable view over
the equivalence registry: one row/column per attribute of the two schemas
being integrated, each cell saying whether the two attributes are in the
same equivalence class.

Like the OCS, the ACS is a **memoized view**: the derived pair list and the
dense boolean matrix are cached and recomputed only after a registry change
that touched one of the two schemas.  Obtain matrices through
:meth:`EquivalenceRegistry.acs`; constructing :class:`AcsMatrix` directly
builds its own unshared cache.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.ecr.attributes import AttributeRef
from repro.errors import EquivalenceError
from repro.kernel.bus import weak_callback
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - types only, avoids an import cycle
    from repro.equivalence.registry import EquivalenceRegistry, RegistryChange


@dataclass(frozen=True)
class AcsCell:
    """One cell of the ACS matrix: an attribute pair plus its status."""

    row: AttributeRef
    column: AttributeRef
    equivalent: bool

    def __str__(self) -> str:
        mark = "~" if self.equivalent else "/"
        return f"{self.row} {mark} {self.column}"


class AcsMatrix:
    """ACS matrix between two registered schemas.

    Rows are the attributes of ``first_schema``, columns those of
    ``second_schema``, both in schema declaration order.
    """

    def __init__(
        self,
        registry: "EquivalenceRegistry",
        first_schema: str,
        second_schema: str,
    ) -> None:
        #: weak: the registry caches this view, so it owns the view
        self._registry_ref = weakref.ref(registry)
        self.first_schema = first_schema
        self.second_schema = second_schema
        self._rows = registry.schema(first_schema).all_attribute_refs()
        self._columns = registry.schema(second_schema).all_attribute_refs()
        self._dirty = False
        self._reselect_needed = False
        #: memoized derived views, rebuilt together after an invalidation
        self._pairs: list[tuple[AttributeRef, AttributeRef]] | None = None
        self._booleans: list[list[bool]] | None = None
        self._subscription = registry.subscribe(
            weak_callback(self, AcsMatrix._on_registry_change)
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

    def _on_registry_change(self, change: "RegistryChange") -> None:
        if not (
            change.touches_schema(self.first_schema)
            or change.touches_schema(self.second_schema)
        ):
            return
        self._dirty = True
        if self.first_schema in change.schemas or self.second_schema in change.schemas:
            self._reselect_needed = True

    def _refresh(self) -> None:
        """Recompute the memoized views if a relevant change occurred."""
        if self._pairs is not None and not self._dirty:
            self._registry.counters.acs_cache_hits += 1
            return
        with span("phase2.acs.recompute", counters=self._registry.counters):
            if self._reselect_needed:
                self._rows = self._registry.schema(
                    self.first_schema
                ).all_attribute_refs()
                self._columns = self._registry.schema(
                    self.second_schema
                ).all_attribute_refs()
                self._reselect_needed = False
            column_numbers = [
                (column, self._registry.class_number(column))
                for column in self._columns
            ]
            pairs: list[tuple[AttributeRef, AttributeRef]] = []
            booleans: list[list[bool]] = []
            for row in self._rows:
                row_number = self._registry.class_number(row)
                flags: list[bool] = []
                for column, column_number in column_numbers:
                    match = row_number == column_number
                    flags.append(match)
                    if match:
                        pairs.append((row, column))
                booleans.append(flags)
            self._pairs = pairs
            self._booleans = booleans
            self._dirty = False
            self._registry.counters.acs_rebuilds += 1

    @property
    def rows(self) -> list[AttributeRef]:
        """Attributes of the first schema, in declaration order."""
        self._refresh()
        return list(self._rows)

    @property
    def columns(self) -> list[AttributeRef]:
        """Attributes of the second schema, in declaration order."""
        self._refresh()
        return list(self._columns)

    def cell(self, row: AttributeRef, column: AttributeRef) -> AcsCell:
        """The cell for one attribute pair."""
        return AcsCell(
            row, column, self._registry.are_equivalent(row, column)
        )

    def equivalent_pairs(self) -> list[tuple[AttributeRef, AttributeRef]]:
        """All cross-schema attribute pairs currently marked equivalent."""
        self._refresh()
        assert self._pairs is not None
        return list(self._pairs)

    def as_booleans(self) -> list[list[bool]]:
        """Dense boolean matrix (row-major) for numeric consumers."""
        self._refresh()
        assert self._booleans is not None
        return [list(row) for row in self._booleans]

    def render(self, max_width: int = 100) -> str:
        """Human-readable rendering used by the tool's debug view."""
        header = "ACS %s x %s" % (self.first_schema, self.second_schema)
        lines = [header, "=" * len(header)]
        for row, bools in zip(self.rows, self.as_booleans()):
            marks = "".join("X" if flag else "." for flag in bools)
            lines.append(f"{str(row):<40.40} {marks}")
        legend = "columns: " + ", ".join(str(column) for column in self._columns)
        lines.append(legend[:max_width])
        return "\n".join(lines) + "\n"
