"""The DDA audit log and its deterministic replay."""

from __future__ import annotations

import pytest

from repro.ecr.builder import SchemaBuilder
from repro.equivalence.session import AnalysisSession
from repro.errors import AssertionSpecError, ConflictError, ReplayError
from repro.obs.audit import AuditEvent, AuditLog
from repro.obs.replay import replay, schema_fingerprint
from repro.tool.app import run_script
from repro.tool.session import ToolSession
from repro.workloads.university import build_sc1, build_sc2, build_sc4


def record_university_session() -> tuple[AnalysisSession, AuditLog]:
    """The paper's Screen 7→9 sitting, recorded from an empty session."""
    session = AnalysisSession()
    log = session.attach_audit()
    session.add_schema(build_sc1())
    session.add_schema(build_sc2())
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    session.declare_equivalent("sc1.Student.Name", "sc2.Faculty.Name")
    session.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
    session.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")
    session.declare_equivalent("sc1.Majors.Since", "sc2.Majors.Since")
    session.specify("sc1.Department", "sc2.Department", 1)
    session.specify("sc1.Student", "sc2.Grad_student", 3)
    session.specify("sc1.Student", "sc2.Faculty", 4)
    session.specify("sc1.Majors", "sc2.Majors", 1, relationships=True)
    session.integrate("sc1", "sc2")
    return session, log


def test_university_flow_replays_bitwise_identical():
    live, log = record_university_session()
    outcome = replay(log)
    assert outcome.verified
    assert len(outcome.results) == 1
    (recorded, replayed) = outcome.fingerprints[0]
    assert recorded == replayed
    # and the replayed session's analysis state matches the live one
    assert (
        outcome.session.registry.nontrivial_classes()
        == live.registry.nontrivial_classes()
    )
    assert outcome.session.feasible(
        "sc1.Student", "sc2.Grad_student"
    ) == live.feasible("sc1.Student", "sc2.Grad_student")


def test_log_survives_jsonl_round_trip(tmp_path):
    _, log = record_university_session()
    path = tmp_path / "sitting.jsonl"
    log.write_jsonl(path)
    loaded = AuditLog.load_jsonl(path)
    assert loaded.actions() == log.actions()
    assert [event.to_dict() for event in loaded] == [
        event.to_dict() for event in log
    ]
    assert replay(loaded).verified


def test_audit_records_every_surface():
    _, log = record_university_session()
    actions = log.actions()
    assert actions.count("registry.register_schema") == 2
    assert actions.count("registry.declare_equivalent") == 5
    assert actions.count("object_network.specify") == 3
    assert actions.count("relationship_network.specify") == 1
    assert actions[-1] == "session.integrate"
    assert "fingerprint" in log.events[-1].payload


def test_conflicts_are_recorded_and_reproduce():
    session = AnalysisSession([build_sc1(), build_sc2()])
    log = session.attach_audit()
    session.specify("sc1.Student", "sc2.Grad_student", 3)
    session.specify("sc2.Grad_student", "sc1.Department", 3)
    # Student ⊃ Grad_student ⊃ Department makes "Department ⊃ Student"
    # infeasible: the conflict is recorded, the network rolls back.
    with pytest.raises(ConflictError):
        session.specify("sc1.Department", "sc1.Student", 3)
    assert log.actions().count("object_network.conflict") == 1
    outcome = replay(log)
    assert outcome.verified
    # the rejected assertion was rolled back; only the derived
    # "Department contained in Student" remains on that pair
    derived = outcome.session.assertion_for("sc1.Department", "sc1.Student")
    assert derived is not None and derived.kind.code == 2
    specified_pairs = {
        assertion.pair
        for assertion in outcome.session.object_network.specified_assertions()
    }
    assert all(
        {str(ref) for ref in pair} != {"sc1.Department", "sc1.Student"}
        for pair in specified_pairs
    )


def test_rejected_respecifications_are_recorded_and_reproduce():
    session = AnalysisSession([build_sc1(), build_sc2()])
    log = session.attach_audit()
    session.specify("sc1.Student", "sc2.Grad_student", 3)
    with pytest.raises(AssertionSpecError):
        session.specify("sc1.Student", "sc2.Grad_student", 1)
    assert "object_network.rejected" in log.actions()
    assert replay(log).verified


def test_retract_and_respecify_replay():
    session = AnalysisSession([build_sc1(), build_sc2()])
    log = session.attach_audit()
    session.specify("sc1.Student", "sc2.Grad_student", 3)
    session.retract("sc1.Student", "sc2.Grad_student")
    session.specify("sc1.Student", "sc2.Grad_student", 5)
    session.respecify("sc1.Student", "sc2.Grad_student", 1)
    # respecify records its retract+specify pair alongside the explicit ones
    actions = log.actions()
    assert actions.count("object_network.retract") == 2
    assert actions.count("object_network.specify") == 3
    outcome = replay(log)
    assert outcome.verified
    assertion = outcome.session.assertion_for("sc1.Student", "sc2.Grad_student")
    assert assertion is not None and assertion.kind.code == 1


def test_attach_mid_session_snapshots_existing_state():
    session = AnalysisSession([build_sc1(), build_sc2()])
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    session.specify("sc1.Student", "sc2.Grad_student", 3)
    log = session.attach_audit()
    assert log.actions()[0] == "session.snapshot"
    session.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")
    live = session.integrate("sc1", "sc2")
    outcome = replay(log)
    assert outcome.verified
    assert schema_fingerprint(outcome.results[0].schema) == schema_fingerprint(
        live.schema
    )


def test_implicit_assertions_replay_through_sc4():
    # sc4's Grad_student ⊆ Student arises from the schema itself; the
    # recorded implicit specify replays as a harmless restatement.
    session = AnalysisSession()
    log = session.attach_audit()
    session.add_schema(build_sc4())
    assert "object_network.specify" in log.actions()
    outcome = replay(log)
    assert outcome.verified
    assertion = outcome.session.assertion_for("sc4.Grad_student", "sc4.Student")
    assert assertion is not None and assertion.kind.code == 2


def test_refresh_schema_with_replacement_replays():
    session = AnalysisSession([build_sc1(), build_sc2()])
    log = session.attach_audit()
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    edited = (
        SchemaBuilder("sc1")
        .entity("Student", attrs=[("Name", "char", True), ("GPA", "real")])
        .entity("Department", attrs=[("Name", "char", True)])
        .relationship(
            "Majors",
            connects=[("Student", "(1,1)"), ("Department", "(0,n)")],
            attrs=[("Since", "date"), ("Advisor", "char")],
        )
        .build()
    )
    session.refresh_schema("sc1", replacement=edited)
    assert "registry.refresh_schema" in log.actions()
    outcome = replay(log)
    assert outcome.verified
    replayed_refs = outcome.session.schema("sc1").all_attribute_refs()
    assert session.schema("sc1").all_attribute_refs() == replayed_refs
    # memberships survive the refresh on both sides
    assert outcome.session.registry.are_equivalent(
        "sc1.Student.Name", "sc2.Grad_student.Name"
    )


def test_screens_driven_sitting_is_recorded_and_replays():
    session = ToolSession()
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    log = session.analysis.attach_audit()
    run_script(
        [
            "2", "sc1 sc2",
            "Student Grad_student", "A Name Name", "A GPA GPA", "E",
            "Department Department", "A Name Name", "E",
            "E", "E",
        ],
        session,
    )
    assert log.actions().count("registry.declare_equivalent") == 3
    assert log.actions()[0] == "session.snapshot"  # schemas predate the log
    outcome = replay(log)
    assert outcome.verified
    assert (
        outcome.session.registry.nontrivial_classes()
        == session.registry.nontrivial_classes()
    )


def test_delete_schema_preserves_the_recording():
    session = ToolSession()
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    log = session.analysis.attach_audit()
    session.analysis.declare_equivalent(
        "sc1.Student.Name", "sc2.Grad_student.Name"
    )
    session.delete_schema("sc2")
    assert session.analysis.audit_log is log
    # the delete is recorded as itself; replay runs the same delete
    assert log.actions()[-1] == "session.delete_schema"
    session.analysis.declare_equivalent(
        "sc1.Student.Name", "sc1.Department.Name"
    )
    outcome = replay(log)
    assert outcome.verified
    assert [schema.name for schema in outcome.session.schemas()] == ["sc1"]


def test_strict_replay_raises_on_divergence():
    _, log = record_university_session()
    tampered = AuditLog()
    for event in log:
        payload = dict(event.payload)
        if event.action == "integrate":
            payload["fingerprint"] = "0" * 64
        tampered.emit(event.scope, event.action, payload)
    with pytest.raises(ReplayError):
        replay(tampered)
    outcome = replay(tampered, strict=False)
    assert not outcome.verified
    assert outcome.divergences


def test_audit_event_round_trip_and_rendering():
    event = AuditEvent(3, "registry", "declare_equivalent", {"first": "a"})
    assert AuditEvent.from_dict(event.to_dict()) == event
    assert "registry.declare_equivalent" in str(event)


def test_package_exports_resolve_deterministically():
    # ``repro.obs.replay`` names the submodule (never the function, which
    # would depend on import order); lazy names resolve through the package.
    import types

    import repro.obs as obs

    assert isinstance(obs.replay, types.ModuleType)
    assert obs.replay.replay is replay
    assert obs.AuditLog is AuditLog
    assert callable(obs.schema_fingerprint)
    with pytest.raises(AttributeError):
        obs.no_such_export


def test_detach_stops_recording():
    session = AnalysisSession([build_sc1(), build_sc2()])
    log = session.attach_audit()
    before = len(log)
    assert session.detach_audit() is log
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    assert len(log) == before


def test_federation_events_are_informational_on_replay():
    """Scope ``federation`` records query outcomes; replay must accept the
    events without re-driving them (they never mutate analysis state)."""
    live, log = record_university_session()
    log.emit(
        "federation",
        "query",
        {
            "request": "select D_Name, D_GPA from Student",
            "strategy": "subset-union",
            "components": ["sc1", "sc2"],
            "rows": 4,
        },
    )
    outcome = replay(log)
    assert outcome.verified
    assert not outcome.divergences
