"""Repair-scope accounting and the scoped solver re-propagation.

Every applied edit produces a :class:`RepairScope` — the tool's
"recomputed 14/2,400 OCS cells, 2 clusters, 1 plan" report — by measuring
exactly what each downstream layer recomputed: the delta of the analysis
counters around the repair (OCS cells, closure pairs), the assertions the
network retracted, the clusters/merge groups the integration patch
rebuilt, and the plans the federation cache dropped.

:func:`scoped_repropagation` is the solver-side verification step: after a
destructive edit's localized network repair, the batch engine
(:func:`repro.solver.engine.propagate`) closes only the facts that involve
the affected objects, from scratch on a throwaway network.  Retraction only
loosens constraints and fresh structures arrive unconstrained, so this can
never fail on a well-formed repair — it is the cheap check that the
neighborhood the incremental repair kept is consistent on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

from repro.ecr.schema import ObjectRef
from repro.errors import ConsistencyFailure
from repro.obs.trace import span
from repro.solver.engine import Propagation, propagate

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.assertions.assertion import Assertion
    from repro.assertions.network import AssertionNetwork
    from repro.evolution.edits import SchemaEdit


@dataclass
class RepairScope:
    """How much of each layer one edit's repair actually touched."""

    schema: str = ""
    edit_kind: str = ""
    ocs_cells_recomputed: int = 0
    ocs_cells_total: int = 0
    registry_classes_touched: int = 0
    assertions_retracted: int = 0
    pairs_repropagated: int = 0
    solver_steps: int = 0
    clusters_changed: int = 0
    clusters_total: int = 0
    merge_groups_recomputed: int = 0
    merge_groups_total: int = 0
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
            parts.append(
                f"{self.merge_groups_recomputed}/"
                f"{self.merge_groups_total} merge groups"
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
            "solver_steps": self.solver_steps,
            "clusters_changed": self.clusters_changed,
            "clusters_total": self.clusters_total,
            "merge_groups_recomputed": self.merge_groups_recomputed,
            "merge_groups_total": self.merge_groups_total,
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
    event inverse for those and undo falls back to a snapshot checkout.
    """

    edit: "SchemaEdit"
    inverse: "SchemaEdit"
    scope: RepairScope
    retracted: tuple["Assertion", ...] = ()
    destructive: bool = False

    def to_wire(self) -> dict[str, Any]:
        return {
            "edit": self.edit.to_payload(),
            "inverse": self.inverse.to_payload(),
            "destructive": self.destructive,
            "retracted": [member.to_wire() for member in self.retracted],
            "scope": self.scope.to_wire(),
        }


def affected_facts(
    network: "AssertionNetwork", objects: Iterable[ObjectRef]
) -> list["Assertion"]:
    """The specified assertions that involve any of the given objects."""
    wanted = set(objects)
    return [
        assertion
        for assertion in network.specified_assertions()
        if assertion.pair[0] in wanted or assertion.pair[1] in wanted
    ]


def scoped_repropagation(
    network: "AssertionNetwork",
    objects: Iterable[ObjectRef],
    *,
    scope: RepairScope | None = None,
) -> Propagation:
    """Re-run the batch engine over only the affected pairs' facts.

    Raises
    ------
    ConsistencyFailure
        If the affected neighborhood is inconsistent.  Unreachable after
        a well-formed localized repair (retraction only loosens), so a
        raise here means the repair itself is broken.
    """
    facts = affected_facts(network, objects)
    with span(
        "evolution.repair.solver",
        counters=network.counters,
        facts=len(facts),
    ):
        outcome = propagate(facts, counters=network.counters)
    if scope is not None:
        scope.pairs_repropagated += len(outcome.domains)
        scope.solver_steps += outcome.steps
    if outcome.culprit is not None:  # pragma: no cover - repair invariant
        from repro.solver.explain import minimal_conflict

        conflict = minimal_conflict(facts, counters=network.counters)
        raise ConsistencyFailure(conflict, subject=outcome.culprit)
    return outcome


__all__ = [
    "EditOutcome",
    "RepairScope",
    "affected_facts",
    "scoped_repropagation",
]
