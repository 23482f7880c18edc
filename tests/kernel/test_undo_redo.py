"""Kernel-level undo/redo: group-wise time travel with no-op skipping."""

import json

import pytest

from repro.equivalence.session import AnalysisSession
from repro.errors import ReproError, ToolError
from repro.tool.session import ToolSession
from repro.workloads.university import build_sc1, build_sc2


def state_key(session: AnalysisSession) -> str:
    return json.dumps(session.state_payload(), sort_keys=True)


@pytest.fixture
def session():
    return AnalysisSession([build_sc1(), build_sc2()])


class TestUndo:
    def test_undo_reverts_the_last_declaration(self, session):
        before = state_key(session)
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        assert session.kernel.undo()
        assert state_key(session) == before
        assert session.registry.nontrivial_classes() == []

    def test_undo_reverts_an_assertion(self, session):
        before = state_key(session)
        session.specify("sc1.Student", "sc2.Grad_student", 2)
        assert session.kernel.undo()
        assert state_key(session) == before
        assert session.assertion_for("sc1.Student", "sc2.Grad_student") is None

    def test_undo_reverts_a_retract(self, session):
        session.specify("sc1.Student", "sc2.Grad_student", 2)
        specified = state_key(session)
        session.retract("sc1.Student", "sc2.Grad_student")
        assert session.kernel.undo()
        assert state_key(session) == specified
        assertion = session.assertion_for("sc1.Student", "sc2.Grad_student")
        assert assertion is not None and assertion.kind.code == 2

    def test_undo_skips_no_op_rejected_groups(self, session):
        from repro.errors import AssertionSpecError

        session.specify("sc1.Student", "sc2.Grad_student", 1)
        specified = state_key(session)
        with pytest.raises(AssertionSpecError):
            session.specify("sc1.Student", "sc2.Grad_student", 4)
        # the rejection event is in history, but undo skips past it and
        # reverts the successful specify instead
        assert state_key(session) == specified
        assert session.kernel.undo()
        assert session.assertion_for("sc1.Student", "sc2.Grad_student") is None

    def test_undo_bottoms_out_at_the_baseline(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        # keep undoing: declaration first, then the schema adds themselves
        steps = 0
        while session.kernel.undo():
            steps += 1
            assert steps < 10
        assert session.schemas() == []
        assert not session.kernel.can_undo()

    def test_undo_of_integrate_falls_back_to_checkout(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        before = state_key(session)
        result = session.integrate("sc1", "sc2")
        assert result is not None
        assert session.kernel.result_at_head() is result
        assert session.kernel.undo()
        assert state_key(session) == before
        assert session.kernel.result_at_head() is None


class TestRedo:
    def test_redo_reapplies_an_undone_declaration(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        after = state_key(session)
        session.kernel.undo()
        assert session.kernel.redo()
        assert state_key(session) == after

    def test_redo_restores_the_integration_result(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        result = session.integrate("sc1", "sc2")
        fingerprint_before = result.schema.name
        session.kernel.undo()
        assert session.kernel.redo()
        redone = session.kernel.result_at_head()
        assert redone is not None
        assert redone.schema.name == fingerprint_before

    def test_nothing_to_redo_without_an_undo(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        assert not session.kernel.redo()

    def test_live_mutation_truncates_the_redo_tail(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.kernel.undo()
        session.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
        assert not session.kernel.redo()  # the old branch is gone
        classes = session.registry.nontrivial_classes()
        assert len(classes) == 1
        members = {str(ref) for ref in classes[0]}
        assert members == {"sc1.Student.GPA", "sc2.Grad_student.GPA"}

    def test_undo_redo_round_trip_is_stable(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.specify("sc1.Student", "sc2.Grad_student", 2)
        final = state_key(session)
        assert session.kernel.undo()
        assert session.kernel.undo()
        assert session.kernel.redo()
        assert session.kernel.redo()
        assert state_key(session) == final

    def test_can_undo_can_redo_track_the_cursor(self, session):
        kernel = session.kernel
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        assert kernel.can_undo()
        assert not kernel.can_redo()
        kernel.undo()
        assert kernel.can_redo()


class TestUndoAfterRebuild:
    def test_undo_after_a_checkout_keeps_equivalences_exact(self, session):
        from copy import deepcopy

        from repro.evolution import edit_from_payload
        from repro.kernel import Kernel

        # the added attribute shifts class numbers when the baseline
        # snapshot is rebuilt, so the declaration's recorded inverse
        # names a class number another attribute holds after the
        # checkout-undo below
        session.apply_edit("sc1", edit_from_payload(deepcopy(
            {"kind": "add_attribute", "object": "Student",
             "attribute": {"name": "Age", "domain": {"kind": "integer"}}}
        )))
        session.kernel.set_baseline()
        session.declare_equivalent(
            "sc1.Student.Name", "sc1.Department.Name"
        )
        session.integrate("sc1", "sc2")
        assert session.kernel.undo()  # the integrate: a checkout
        assert session.kernel.undo()  # the declaration: its inverse
        assert session.registry.nontrivial_classes() == []
        state = session.kernel.export_state()
        restored_kernel = Kernel.restore(state)
        restored = AnalysisSession(kernel=restored_kernel)
        restored_kernel.checkout(state["head"])
        assert state_key(restored) == state_key(session)

    def test_undo_of_an_attribute_drop_restores_its_position(self, session):
        from repro.evolution import edit_from_payload

        before = state_key(session)
        session.apply_edit("sc1", edit_from_payload(
            {"kind": "drop_attribute", "object": "Student",
             "attribute": "Name"}
        ))
        assert session.kernel.undo()
        assert state_key(session) == before


class TestRedoNoOp:
    def test_failed_redo_leaves_the_head_and_the_wal_alone(self, tmp_path):
        # a trailing refused assertion is a no-op group: a redo that finds
        # nothing effectful ahead used to replay it anyway, moving the
        # head without journaling the move
        path = tmp_path / "session.json"
        session = ToolSession.open(path)
        session.adopt_schema(build_sc1())
        session.adopt_schema(build_sc2())
        analysis = session.analysis
        analysis.specify("sc1.Student", "sc2.Grad_student", 1)
        analysis.specify("sc1.Student", "sc2.Faculty", 1)
        with pytest.raises(ReproError):
            analysis.specify("sc2.Grad_student", "sc2.Faculty", 5)
        kernel = analysis.kernel
        session.undo()
        session.redo()
        head = kernel.head
        assert not kernel.can_redo()
        with pytest.raises(ToolError):
            session.redo()
        assert kernel.head == head
        assert ToolSession.open(path).analysis.kernel.head == kernel.head


class TestAuditResnapshot:
    def test_time_travel_re_anchors_the_audit_log(self, session):
        log = session.attach_audit()
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.kernel.undo()
        assert log.actions()[-1] == "kernel.undo"
        from repro.obs.replay import replay

        outcome = replay(log)
        assert outcome.verified
        assert state_key(outcome.session) == state_key(session)
