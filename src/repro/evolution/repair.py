"""Repair-scope accounting for schema edits.

Every applied edit produces a :class:`RepairScope` — the tool's
"recomputed 14/2,400 OCS cells, 2 clusters, 1 plan" report — by measuring
exactly what each downstream layer recomputed: the delta of the analysis
counters around the repair (OCS cells, closure pairs), the assertions the
network retracted, the clusters of the integrated pair whose membership
the re-integration changed, and the plans the federation cache dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.assertions.assertion import Assertion
    from repro.evolution.edits import SchemaEdit
    from repro.integration.result import IntegrationResult


@dataclass
class RepairScope:
    """How much of each layer one edit's repair actually touched."""

    schema: str = ""
    edit_kind: str = ""
    ocs_cells_recomputed: int = 0
    ocs_cells_total: int = 0
    registry_classes_touched: int = 0
    assertions_retracted: int = 0
    #: closure pairs the localized network repair reset and re-derived
    pairs_repropagated: int = 0
    clusters_changed: int = 0
    clusters_total: int = 0
    plans_invalidated: int = 0
    plans_total: int = 0
    integrated_patched: bool = False

    def summary(self) -> str:
        """The one-line repair report shown on the evolution screen."""
        parts = [
            f"recomputed {self.ocs_cells_recomputed:,}/"
            f"{self.ocs_cells_total:,} OCS cells"
        ]
        if self.assertions_retracted:
            parts.append(f"retracted {self.assertions_retracted} assertions")
        if self.pairs_repropagated:
            parts.append(f"re-propagated {self.pairs_repropagated} pairs")
        if self.integrated_patched:
            parts.append(
                f"{self.clusters_changed}/{self.clusters_total} clusters"
            )
        if self.plans_total:
            parts.append(
                f"{self.plans_invalidated}/{self.plans_total} plans"
            )
        return ", ".join(parts)

    def to_wire(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "edit_kind": self.edit_kind,
            "ocs_cells_recomputed": self.ocs_cells_recomputed,
            "ocs_cells_total": self.ocs_cells_total,
            "registry_classes_touched": self.registry_classes_touched,
            "assertions_retracted": self.assertions_retracted,
            "pairs_repropagated": self.pairs_repropagated,
            "clusters_changed": self.clusters_changed,
            "clusters_total": self.clusters_total,
            "plans_invalidated": self.plans_invalidated,
            "plans_total": self.plans_total,
            "integrated_patched": self.integrated_patched,
            "summary": self.summary(),
        }


@dataclass(frozen=True)
class EditOutcome:
    """The result of :meth:`AnalysisSession.apply_edit`.

    ``edit`` is the applied edit, ``inverse`` the edit that undoes it,
    ``retracted`` the specified assertions a destructive edit withdrew,
    and ``scope`` the repair accounting.  ``destructive`` marks edits
    whose inverse edit alone cannot restore the prior state (retracted
    assertions, lost equivalence memberships) — the kernel records no
    event inverse for those and undo falls back to a checkout.
    ``result`` is the re-integrated schema when the edit touched the
    pair of the latest integration, else ``None``.
    """

    edit: "SchemaEdit"
    inverse: "SchemaEdit"
    scope: RepairScope
    retracted: tuple["Assertion", ...] = ()
    destructive: bool = False
    result: "IntegrationResult | None" = None

    def to_wire(self) -> dict[str, Any]:
        return {
            "edit": self.edit.to_payload(),
            "inverse": self.inverse.to_payload(),
            "destructive": self.destructive,
            "retracted": [member.to_wire() for member in self.retracted],
            "scope": self.scope.to_wire(),
        }


__all__ = ["EditOutcome", "RepairScope"]
