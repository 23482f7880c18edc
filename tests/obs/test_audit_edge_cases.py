"""Audit-log edge cases: mid-session attach, empty logs, trailing retractions.

The audit log journals the kernel's commits and head moves, anchored
where it was attached: attaching to a session with state writes a
``session.snapshot``, and a later checkout is recorded relative to it.
"""

import json

import pytest

from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.equivalence.session import AnalysisSession
from repro.errors import ReplayError
from repro.evolution import AddAttribute
from repro.obs.audit import AuditLog
from repro.obs.replay import replay, schema_fingerprint
from repro.workloads.university import build_sc1, build_sc2


def state_key(session: AnalysisSession) -> str:
    return json.dumps(session.state_payload(), sort_keys=True)


class TestMidSessionAttach:
    def test_attach_with_prior_state_snapshots_first(self):
        session = AnalysisSession([build_sc1(), build_sc2()])
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        log = session.attach_audit()
        assert log.events[0].action == "snapshot"
        assert log.events[0].payload["equivalences"] == [
            ["sc1.Student.Name", "sc2.Grad_student.Name"]
        ]

    def test_attach_then_checkout_stays_replayable(self):
        session = AnalysisSession([build_sc1(), build_sc2()])
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        log = session.attach_audit()
        session.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
        # time travel back past the second declaration, to the attach
        # point: the log records the move relative to it
        session.kernel.checkout(session.kernel.head - 1)
        assert (log.actions()[-1], log.events[-1].payload) == (
            "kernel.checkout",
            {"offset": 0},
        )
        outcome = replay(AuditLog.from_jsonl(log.to_jsonl()))
        assert outcome.verified
        assert state_key(outcome.session) == state_key(session)
        assert len(session.registry.nontrivial_classes()) == 1

    def test_snapshot_then_more_live_events_replay_in_order(self):
        session = AnalysisSession([build_sc1(), build_sc2()])
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        log = session.attach_audit()
        session.kernel.checkout(session.kernel.head - 1)  # drop it again
        session.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
        outcome = replay(log)
        assert outcome.verified
        assert state_key(outcome.session) == state_key(session)


class TestEmptyLog:
    def test_replay_of_empty_log_yields_a_fresh_session(self):
        outcome = replay(AuditLog())
        assert outcome.verified
        assert outcome.session.schemas() == []
        assert outcome.results == []

    def test_empty_log_round_trips_through_jsonl(self):
        log = AuditLog.from_jsonl(AuditLog().to_jsonl())
        assert len(log) == 0
        assert replay(log).verified


class TestTrailingRetraction:
    def test_replay_of_log_ending_in_a_retraction(self):
        session = AnalysisSession([build_sc1(), build_sc2()])
        log = session.attach_audit()
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.specify("sc1.Student", "sc2.Grad_student", 2)
        session.retract("sc1.Student", "sc2.Grad_student")
        assert log.events[-1].action == "retract"
        outcome = replay(AuditLog.from_jsonl(log.to_jsonl()))
        assert outcome.verified
        replayed = outcome.session
        assert (
            replayed.assertion_for("sc1.Student", "sc2.Grad_student") is None
        )
        assert state_key(replayed) == state_key(session)

    def test_replay_of_log_ending_in_an_equivalence_removal(self):
        session = AnalysisSession([build_sc1(), build_sc2()])
        log = session.attach_audit()
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.remove_from_class("sc1.Student.Name")
        outcome = replay(log)
        assert outcome.verified
        assert outcome.session.registry.nontrivial_classes() == []


class TestSnapshotsCarryTheIntegrationAtHead:
    """A snapshot says which integration is at its head, so an edit after
    it re-integrates under replay exactly when it did live."""

    BUDGET = AddAttribute("Department", Attribute("Budget", Domain(DomainKind.CHAR)))

    def integrated_session(self) -> tuple[AnalysisSession, AuditLog]:
        session = AnalysisSession([build_sc1(), build_sc2()])
        log = session.attach_audit()
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.integrate("sc1", "sc2")
        return session, log

    def test_an_undo_past_the_integrate_is_not_reintegrated(self):
        session, log = self.integrated_session()
        session.kernel.undo()
        assert "integration" not in log.events[-1].payload
        session.apply_edit("sc1", self.BUDGET)
        assert session.kernel.result_at_head() is None
        outcome = replay(AuditLog.from_jsonl(log.to_jsonl()))
        assert outcome.verified
        assert len(outcome.results) == 1  # the recorded integrate alone
        assert outcome.session.kernel.result_at_head() is None
        assert state_key(outcome.session) == state_key(session)

    def test_a_snapshot_with_the_integrate_at_head_still_reintegrates(self):
        session, log = self.integrated_session()
        session.attach_audit(log)  # re-anchors the log with a snapshot
        assert log.events[-1].payload["integration"]["first"] == "sc1"
        session.apply_edit("sc1", self.BUDGET)
        live = schema_fingerprint(session.kernel.result_at_head().schema)
        outcome = replay(AuditLog.from_jsonl(log.to_jsonl()))
        assert outcome.verified
        assert len(outcome.results) == 2
        assert schema_fingerprint(outcome.results[-1].schema) == live
        replayed = outcome.session.kernel.result_at_head()
        assert schema_fingerprint(replayed.schema) == live

    def test_the_snapshot_records_the_reintegrated_result(self):
        session, log = self.integrated_session()
        session.apply_edit("sc1", self.BUDGET)
        session.attach_audit(log)  # re-anchors the log with a snapshot
        live = schema_fingerprint(session.kernel.result_at_head().schema)
        assert log.events[-1].payload["integration"]["fingerprint"] == live
        outcome = replay(log)
        assert outcome.verified
        replayed = outcome.session.kernel.result_at_head()
        assert schema_fingerprint(replayed.schema) == live

    def test_a_snapshot_integration_that_diverges_is_reported(self):
        session, log = self.integrated_session()
        session.attach_audit(log)  # re-anchors the log with a snapshot
        log.events[-1].payload["integration"]["fingerprint"] = "0" * 64
        with pytest.raises(ReplayError, match="session.snapshot"):
            replay(log)
        assert not replay(log, strict=False).verified
