"""Incremental schema evolution: typed edits with localized repair.

Component schemas are not frozen once analysis begins.  A
:class:`~repro.evolution.edits.SchemaEdit` applied through
:meth:`AnalysisSession.apply_edit <repro.equivalence.session.AnalysisSession.apply_edit>`
enters the kernel as a first-class ``evolution.apply_edit`` event and
propagates as *localized repair* through every downstream layer — the
equivalence registry, the memoized OCS/ACS views, the assertion network's
via rows and support overflow, the cluster lattice and integrated schema, and the
federation plan cache — instead of forcing a full re-integration.  The
repair is pinned against a from-scratch oracle
(:mod:`repro.baselines.evolution_baselines`): incremental and rebuilt
sessions must agree bitwise on their ``state_payload`` fingerprints.

See ``docs/EVOLUTION.md`` for the vocabulary and the repair pipeline.
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "EDIT_KINDS": "repro.evolution.edits",
        "AddAttribute": "repro.evolution.edits",
        "AddClass": "repro.evolution.edits",
        "AddParticipation": "repro.evolution.edits",
        "AddRelationship": "repro.evolution.edits",
        "ChangeCardinality": "repro.evolution.edits",
        "ChangeKey": "repro.evolution.edits",
        "DropAttribute": "repro.evolution.edits",
        "DropClass": "repro.evolution.edits",
        "DropParticipation": "repro.evolution.edits",
        "DropRelationship": "repro.evolution.edits",
        "EditDelta": "repro.evolution.edits",
        "RenameAttribute": "repro.evolution.edits",
        "RetargetRelationship": "repro.evolution.edits",
        "SchemaEdit": "repro.evolution.edits",
        "SetCategoryParents": "repro.evolution.edits",
        "edit_from_payload": "repro.evolution.edits",
        "EditOutcome": "repro.evolution.repair",
        "RepairScope": "repro.evolution.repair",
    },
)
