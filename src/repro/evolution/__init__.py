"""Incremental schema evolution: typed edits with localized repair.

Component schemas are not frozen once analysis begins.  A
:class:`~repro.evolution.edits.SchemaEdit` applied through
:meth:`AnalysisSession.apply_edit <repro.equivalence.session.AnalysisSession.apply_edit>`
enters the kernel as a first-class ``evolution.apply_edit`` event and
propagates as *localized repair* through every downstream layer — the
equivalence registry, the memoized OCS/ACS views, the assertion network's
support index, the cluster lattice and integrated schema, and the
federation plan cache — instead of forcing a full re-integration.  The
repair is pinned against a from-scratch oracle
(:mod:`repro.baselines.evolution_baselines`): incremental and rebuilt
sessions must agree bitwise on their ``state_payload`` fingerprints.

See ``docs/EVOLUTION.md`` for the vocabulary and the repair pipeline.
"""

from repro.evolution.edits import (
    EDIT_KINDS,
    AddAttribute,
    AddClass,
    AddParticipation,
    AddRelationship,
    ChangeCardinality,
    ChangeKey,
    DropAttribute,
    DropClass,
    DropParticipation,
    DropRelationship,
    EditDelta,
    RenameAttribute,
    RetargetRelationship,
    SchemaEdit,
    SetCategoryParents,
    edit_from_payload,
)
from repro.evolution.repair import EditOutcome, RepairScope

__all__ = [
    "AddAttribute",
    "AddClass",
    "AddParticipation",
    "AddRelationship",
    "ChangeCardinality",
    "ChangeKey",
    "DropAttribute",
    "DropClass",
    "DropParticipation",
    "DropRelationship",
    "EDIT_KINDS",
    "EditDelta",
    "EditOutcome",
    "RenameAttribute",
    "RepairScope",
    "RetargetRelationship",
    "SchemaEdit",
    "SetCategoryParents",
    "edit_from_payload",
]
