"""Checkout and persistence: restoring any offset by baseline + replay."""

import json

import pytest

from repro.ecr.json_io import schema_to_dict
from repro.equivalence.session import AnalysisSession
from repro.errors import KernelError
from repro.kernel import Kernel
from repro.replication import ReplicaApplier
from repro.tool.session import ToolSession
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
)

DECLARATIONS = [
    ("sc1.Student.Name", "sc2.Grad_student.Name"),
    ("sc1.Student.GPA", "sc2.Grad_student.GPA"),
    ("sc1.Department.Name", "sc2.Department.Name"),
    ("sc1.Majors.Since", "sc2.Majors.Since"),
]


def state_key(session: AnalysisSession) -> str:
    return json.dumps(session.state_payload(), sort_keys=True)


def restore(state) -> AnalysisSession:
    kernel = Kernel.restore(state)
    restored = AnalysisSession(kernel=kernel)
    kernel.checkout(state["head"])
    return restored


def rerun_prefix(offset: int) -> AnalysisSession:
    """A fresh session re-driven through the same first ``offset`` events."""
    reference = AnalysisSession([build_sc1(), build_sc2()])
    for first, second in DECLARATIONS:
        if reference.kernel.head >= offset:
            break
        reference.declare_equivalent(first, second)
    return reference


@pytest.fixture
def session():
    return AnalysisSession([build_sc1(), build_sc2()])


class TestCheckout:
    def test_checkout_restores_any_prefix(self, session):
        base = session.kernel.head  # schema registration events
        keys = {base: state_key(session)}
        for first, second in DECLARATIONS:
            session.declare_equivalent(first, second)
            keys[session.kernel.head] = state_key(session)
        for offset in sorted(keys):
            session.kernel.checkout(offset)
            assert state_key(session) == keys[offset], offset
            assert session.kernel.head == offset

    def test_checkout_leaves_the_log_intact(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        end = session.kernel.bus.offset
        session.kernel.checkout(end - 1)
        assert session.kernel.bus.offset == end
        assert session.kernel.head == end - 1

    def test_checkout_outside_range_raises(self, session):
        with pytest.raises(KernelError):
            session.kernel.checkout(session.kernel.bus.offset + 1)
        with pytest.raises(KernelError):
            session.kernel.checkout(-1)

    def test_a_long_history_keeps_no_snapshot(self, session):
        for _ in range(40):
            for first, second in DECLARATIONS:
                session.declare_equivalent(first, second)
            session.kernel.undo()
        assert session.kernel.export_state()["snapshots"] == []

    def test_views_track_state_across_checkout(self, session):
        # a cached OCS matrix must follow time travel, not its build state
        from repro.ecr.schema import ObjectRef

        pair = ObjectRef("sc1", "Student"), ObjectRef("sc2", "Grad_student")
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        cell_after = session.ocs("sc1", "sc2").entry(*pair).equivalent_attributes
        session.kernel.checkout(session.kernel.head - 1)
        cell_before = session.ocs("sc1", "sc2").entry(*pair).equivalent_attributes
        assert cell_after == cell_before + 1


class TestPersistence:
    def test_export_restore_round_trip(self, session):
        for first, second in DECLARATIONS:
            session.declare_equivalent(first, second)
        session.specify("sc1.Student", "sc2.Grad_student", 3)
        session.integrate("sc1", "sc2")
        state = session.kernel.export_state()

        restored = restore(state)
        assert state_key(restored) == state_key(session)
        assert restored.kernel.head == session.kernel.head
        assert restored.kernel.result_at_head() is not None

    def test_export_state_is_json_serialisable(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        session.kernel.set_baseline()
        state = json.loads(json.dumps(session.kernel.export_state()))
        assert "declare_equivalent" in json.dumps(state)
        assert [entry["offset"] for entry in state["snapshots"]] == [
            session.kernel.baseline
        ]
        assert state_key(restore(state)) == state_key(session)

    def test_legacy_baseline_floors_time_travel(self, session):
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        kernel = session.kernel
        kernel.set_baseline()
        assert kernel.baseline == kernel.head
        assert not kernel.undo()
        with pytest.raises(KernelError):
            kernel.checkout(kernel.baseline - 1)


def build_paper_world() -> AnalysisSession:
    """The paper's sc1/sc2 sitting, integrated at offset 12."""
    session = AnalysisSession([build_sc1(), build_sc2()])
    for first, second in DECLARATIONS:
        session.declare_equivalent(first, second)
    session.declare_equivalent("sc1.Student.Name", "sc2.Faculty.Name")
    for first, second, code in PAPER_ASSERTION_CODES:
        session.specify(first, second, code)
    for first, second, code in PAPER_RELATIONSHIP_CODES:
        session.specify(first, second, code, relationships=True)
    session.integrate("sc1", "sc2")
    return session


def respecify_cycles(session: AnalysisSession, cycles: int) -> None:
    """Retract and re-specify one paper assertion ``cycles`` times."""
    first, second, code = PAPER_ASSERTION_CODES[0]
    for _ in range(cycles):
        session.retract(first, second)
        session.specify(first, second, code)


class TestRestoreKeepsTheIntegrationResult:
    """Regression: a restore after a long history lost the integrate result.

    Checkout used to start from the nearest periodic snapshot; with one
    taken after the last integrate, that event was never replayed and
    the restored session had no integration result.
    """

    @pytest.fixture
    def world(self):
        session = build_paper_world()
        integrate = [
            event.offset
            for event in session.kernel.bus.events()
            if event.action == "integrate"
        ]
        assert integrate == [12]
        respecify_cycles(session, 40)  # 80 events past the integrate
        return session

    def test_restored_session_has_the_live_result(self, world):
        live = world.kernel.result_at_head()
        assert live is not None
        restored = ToolSession.from_kernel_state(world.kernel.export_state())
        assert restored.result is not None
        assert restored.result.schema.name == live.schema.name
        assert schema_to_dict(restored.result.schema) == schema_to_dict(
            live.schema
        )

    def test_replica_read_has_the_live_result(self, world):
        live = world.kernel.result_at_head()
        applier = ReplicaApplier(state=world.kernel.export_state())
        replica = applier.session()
        assert replica.result is not None
        assert replica.result.schema.name == live.schema.name


def parent_format_export(session: AnalysisSession, stale) -> dict:
    """``export_state`` as the periodic-snapshot kernel wrote it.

    That kernel kept a ``{"offset", "state"}`` entry every few events
    besides the baseline one; these are taken by checking out every
    fourth offset.  ``stale`` is one more entry, from a branch a later
    truncate cut away.
    """
    kernel = session.kernel
    state = kernel.export_state()
    entries = list(state["snapshots"])
    for offset in range(kernel.baseline + 4, state["head"] + 1, 4):
        kernel.checkout(offset)
        entries.append({"offset": offset, "state": session.state_payload()})
    kernel.checkout(state["head"])
    entries.append(stale)
    entries.sort(key=lambda entry: entry["offset"])
    return dict(state, snapshots=entries)


def branch_with_a_stale_entry(session: AnalysisSession) -> dict:
    """Declare, keep the state as a snapshot entry, undo, branch off."""
    session.declare_equivalent("sc1.Department.Name", "sc2.Faculty.Name")
    stale = {
        "offset": session.kernel.head,
        "state": session.state_payload(),
    }
    assert session.kernel.undo()
    session.declare_equivalent("sc2.Department.Name", "sc2.Faculty.Name")
    assert session.kernel.head == stale["offset"]  # the truncate re-grew
    return stale


class TestParentFormatExports:
    """Exports with periodic snapshots still load, to the same state."""

    def test_periodic_entries_are_ignored(self):
        session = build_paper_world()
        stale = branch_with_a_stale_entry(session)
        respecify_cycles(session, 10)
        state = parent_format_export(session, stale)
        assert len(state["snapshots"]) >= 8

        restored = ToolSession.from_kernel_state(state)
        assert state_key(restored.analysis) == state_key(session)
        live = session.kernel.result_at_head()
        assert schema_to_dict(restored.result.schema) == schema_to_dict(
            live.schema
        )
        assert restored.analysis.kernel.export_state()["snapshots"] == []

    def test_the_baseline_entry_is_kept(self):
        session = build_paper_world()
        session.kernel.set_baseline()
        baseline = session.kernel.baseline
        stale = branch_with_a_stale_entry(session)
        respecify_cycles(session, 6)
        session.integrate("sc1", "sc2")
        state = parent_format_export(session, stale)

        restored = ToolSession.from_kernel_state(state)
        assert state_key(restored.analysis) == state_key(session)
        assert restored.result is not None
        snapshots = restored.analysis.kernel.export_state()["snapshots"]
        assert [entry["offset"] for entry in snapshots] == [baseline]
        assert snapshots == session.kernel.export_state()["snapshots"]

    def test_a_missing_baseline_entry_refuses_checkout(self):
        session = build_paper_world()
        session.kernel.set_baseline()
        state = session.kernel.export_state()
        state["snapshots"] = [
            {"offset": 4, "state": session.state_payload()}
        ]
        kernel = Kernel.restore(state)
        AnalysisSession(kernel=kernel)
        with pytest.raises(KernelError):
            kernel.checkout(state["head"])


class TestLegacyRestoreRecovers:
    """A legacy save (no kernel record) reopened, mutated, then crashed."""

    def legacy_save(self, tmp_path, schemas):
        session = ToolSession()
        for schema in schemas:
            session.adopt_schema(schema)
        data = session.to_dictionary().to_dict()
        del data["kernel"]  # a save from before the kernel existed
        data["format"] = 1
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(data))
        return path

    def test_baseline_snapshot_at_offset_zero_rides_in_the_wal(
        self, tmp_path
    ):
        from repro.kernel.wal import WriteAheadLog

        path = self.legacy_save(tmp_path, [])
        session = ToolSession.open(path)
        kernel = session.analysis.kernel
        assert kernel.baseline == 0
        session.adopt_schema(build_sc1())
        session.adopt_schema(build_sc2())
        session.registry.declare_equivalent(*DECLARATIONS[0])
        expected = state_key(session.analysis)
        del session  # no save: the WAL holds everything past the baseline

        wal = WriteAheadLog(f"{path}.wal")
        base = wal.open_report.records[0]
        wal.close()
        assert base["t"] == "base" and base["snapshot"]["offset"] == 0
        recovered = ToolSession.open(path)
        assert recovered.last_recovery.used_wal
        assert state_key(recovered.analysis) == expected
        assert recovered.analysis.kernel.baseline == 0

    def test_baseline_past_offset_zero_recovers(self, tmp_path):
        path = self.legacy_save(tmp_path, [build_sc1(), build_sc2()])
        session = ToolSession.open(path)
        baseline = session.analysis.kernel.baseline
        assert baseline > 0
        for first, second in DECLARATIONS:
            session.registry.declare_equivalent(first, second)
        session.undo()
        expected = state_key(session.analysis)
        del session

        recovered = ToolSession.open(path)
        assert state_key(recovered.analysis) == expected
        kernel = recovered.analysis.kernel
        assert kernel.baseline == baseline
        assert len(kernel.export_state()["snapshots"]) == 1
        assert recovered.redo()  # the redo tail survived the crash
