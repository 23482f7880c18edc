"""The per-step envelope: ``Kernel.group``, ``EventBus.grouped`` and the
slotted :class:`ObjectRef` every network and registry map is keyed by.

Both group context managers are plain classes, not generators; these
tests pin what the generator versions guaranteed: nested groups join one
transaction, a raising block still journals what it committed, and the
bus lock is held from a group's first event through its WAL commit.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
import threading

import pytest

from repro.ecr.schema import ObjectRef
from repro.equivalence.session import AnalysisSession
from repro.errors import AssertionSpecError
from repro.kernel.wal import WriteAheadLog
from repro.workloads.university import build_sc1, build_sc2


def paper_session() -> AnalysisSession:
    session = AnalysisSession([build_sc1(), build_sc2()])
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    return session


def wal_records(directory) -> list[dict]:
    with WriteAheadLog(directory, sync=False) as wal:
        return wal.open_report.records


class TestKernelGroup:
    def test_nested_groups_join_one_transaction(self):
        session = paper_session()
        kernel = session.kernel
        start = kernel.bus.offset
        with kernel.group() as outer:
            with kernel.group() as inner:
                session.specify("sc1.Student", "sc2.Grad_student", 2)
            session.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")
        events = kernel.bus.events(start)
        assert inner == outer is not None
        assert len(events) == 2
        assert {event.txn for event in events} == {outer}
        assert kernel.bus.active_txn is None
        assert kernel.undo()
        assert kernel.head == start

    def test_bus_groups_outside_any_group_open_new_transactions(self):
        bus = paper_session().kernel.bus
        with bus.grouped() as first:
            pass
        with bus.grouped() as second:
            pass
        assert second == first + 1
        assert bus.active_txn is None

    def test_a_raising_group_still_journals_its_events(self, tmp_path):
        session = paper_session()
        kernel = session.kernel
        kernel.attach_wal(WriteAheadLog(tmp_path / "wal", sync=False))
        start = kernel.bus.offset
        session.specify("sc1.Student", "sc2.Grad_student", 1)
        with pytest.raises(AssertionSpecError):
            with kernel.group():
                session.declare_equivalent(
                    "sc1.Department.Name", "sc2.Department.Name"
                )
                # the pair already carries equals: refused, but recorded
                session.specify("sc2.Grad_student", "sc1.Student", 0)
        kernel.wal.close()
        assert kernel.bus.active_txn is None
        commits = [
            record for record in wal_records(tmp_path / "wal")
            if record["t"] == "commit"
        ]
        journaled = [event for record in commits for event in record["events"]]
        assert [event["offset"] for event in journaled] == list(
            range(start + 1, kernel.bus.offset + 1)
        )
        assert [event["action"] for event in commits[-1]["events"]] == [
            "declare_equivalent",
            "rejected",
        ]

    def test_no_publish_between_a_groups_last_event_and_its_commit(
        self, tmp_path
    ):
        session = paper_session()
        kernel = session.kernel
        blocked: list[bool] = []
        committed: list[list[int]] = []

        def publish_elsewhere() -> None:
            session.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")

        class ProbingWal(WriteAheadLog):
            def commit(self, events, *, truncate=None):
                if not blocked:
                    # inside the group's WAL commit: another writer must
                    # wait on the bus lock until this commit returns
                    other = threading.Thread(target=publish_elsewhere)
                    other.start()
                    other.join(timeout=0.2)
                    blocked.append(other.is_alive())
                    self.other = other
                committed.append([event["offset"] for event in events])
                super().commit(events, truncate=truncate)

        wal = ProbingWal(tmp_path / "wal", sync=False)
        kernel.attach_wal(wal)
        start = kernel.bus.offset
        with kernel.group():
            session.specify("sc1.Student", "sc2.Grad_student", 2)
        wal.other.join(timeout=10)
        wal.close()
        assert blocked == [True]
        assert committed == [[start + 1], [start + 2]]
        assert kernel.bus.event_at(start + 2).action == "declare_equivalent"


class TestSlottedObjectRef:
    REF = ObjectRef("sc1", "Student")

    def test_has_slots_and_stays_frozen(self):
        assert not hasattr(self.REF, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            self.REF.schema = "sc2"  # type: ignore[misc]

    def test_pickles_and_copies(self):
        for clone in (
            pickle.loads(pickle.dumps(self.REF)),
            copy.copy(self.REF),
            copy.deepcopy(self.REF),
        ):
            assert clone == self.REF
            assert hash(clone) == hash(self.REF)
            assert str(clone) == "sc1.Student"

    def test_sorts_by_schema_then_name(self):
        refs = [
            ObjectRef("sc2", "Alpha"),
            ObjectRef("sc1", "Zeta"),
            ObjectRef("sc1", "Alpha"),
        ]
        assert sorted(refs) == [refs[2], refs[1], refs[0]]

    def test_hashes_as_its_field_tuple(self):
        assert hash(self.REF) == hash(("sc1", "Student"))
        assert {self.REF: 1}[ObjectRef("sc1", "Student")] == 1
