"""Transactions: all-or-nothing multi-mutation blocks over the kernel."""

import json

import pytest

from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.equivalence.session import AnalysisSession
from repro.errors import DuplicateNameError
from repro.evolution import AddAttribute
from repro.kernel import wal as wal_module
from repro.kernel.wal import scan_records
from repro.tool.session import ToolSession
from repro.workloads.university import build_sc1, build_sc2


def state_key(session: AnalysisSession) -> str:
    return json.dumps(session.state_payload(), sort_keys=True)


class Boom(Exception):
    pass


@pytest.fixture
def session():
    return AnalysisSession([build_sc1(), build_sc2()])


class TestCommit:
    def test_transaction_commits_one_group(self, session):
        kernel = session.kernel
        before = kernel.head
        with kernel.transaction():
            session.declare_equivalent(
                "sc1.Student.Name", "sc2.Grad_student.Name"
            )
            session.declare_equivalent(
                "sc1.Student.GPA", "sc2.Grad_student.GPA"
            )
        committed = kernel.bus.events(before)
        assert len(committed) == 2
        assert len({event.txn for event in committed}) == 1
        assert kernel.head == before + 2

    def test_nested_transactions_join_the_outermost(self, session):
        kernel = session.kernel
        before = kernel.head
        with kernel.transaction():
            session.declare_equivalent(
                "sc1.Student.Name", "sc2.Grad_student.Name"
            )
            with kernel.transaction():
                session.declare_equivalent(
                    "sc1.Student.GPA", "sc2.Grad_student.GPA"
                )
        committed = kernel.bus.events(before)
        assert len({event.txn for event in committed}) == 1


class TestRollback:
    def test_failed_transaction_restores_state_and_log(self, session):
        kernel = session.kernel
        before_offset = kernel.bus.offset
        before_state = state_key(session)
        with pytest.raises(Boom):
            with kernel.transaction():
                session.declare_equivalent(
                    "sc1.Student.Name", "sc2.Grad_student.Name"
                )
                session.specify("sc1.Student", "sc2.Grad_student", 1)
                raise Boom()
        assert kernel.bus.offset == before_offset
        assert kernel.head == before_offset
        assert state_key(session) == before_state
        assert session.registry.nontrivial_classes() == []
        assert (
            session.assertion_for("sc1.Student", "sc2.Grad_student") is None
        )

    def test_rollback_covers_non_invertible_events(self, session):
        # an integrate event records no inverse; the rollback rebuilds
        # the session at the entry offset and drops the cached result
        kernel = session.kernel
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        before_offset = kernel.bus.offset
        before_state = state_key(session)
        with pytest.raises(Boom):
            with kernel.transaction():
                session.integrate("sc1", "sc2")
                raise Boom()
        assert kernel.bus.offset == before_offset
        assert state_key(session) == before_state
        assert kernel.result_at_head() is None

    def test_nested_failure_rolls_back_the_whole_transaction(self, session):
        kernel = session.kernel
        before_offset = kernel.bus.offset
        before_state = state_key(session)
        with pytest.raises(Boom):
            with kernel.transaction():
                session.declare_equivalent(
                    "sc1.Student.Name", "sc2.Grad_student.Name"
                )
                with kernel.transaction():
                    session.declare_equivalent(
                        "sc1.Student.GPA", "sc2.Grad_student.GPA"
                    )
                    raise Boom()
        assert kernel.bus.offset == before_offset
        assert state_key(session) == before_state

    def test_committed_history_survives_a_later_rollback(self, session):
        kernel = session.kernel
        session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
        committed_state = state_key(session)
        with pytest.raises(Boom):
            with kernel.transaction():
                session.remove_from_class("sc1.Student.Name")
                raise Boom()
        assert state_key(session) == committed_state
        assert len(session.registry.nontrivial_classes()) == 1

    def test_rollback_resnapshots_an_attached_audit_log(self, session):
        log = session.attach_audit()
        with pytest.raises(Boom):
            with session.kernel.transaction():
                session.declare_equivalent(
                    "sc1.Student.Name", "sc2.Grad_student.Name"
                )
                raise Boom()
        assert log.actions() == ["session.snapshot"]

    def test_failed_transaction_still_raises_the_original_error(self, session):
        with pytest.raises(Boom):
            with session.kernel.transaction():
                raise Boom()


class TestRollbackAndSnapshots:
    def test_rolled_back_snapshots_do_not_reach_a_reload(
        self, tmp_path, monkeypatch
    ):
        # the periodic-snapshot kernel let a transaction's inner groups
        # snapshot mid-transaction; the rollback dropped their events but
        # kept the snapshots, so a later save reloaded the rolled-back
        # state instead of the live one.  Now nothing but the baseline is
        # kept, and the WAL (rotating at every commit here) reloads too.
        monkeypatch.setattr(wal_module, "SEGMENT_COMMITS", 1)
        path = tmp_path / "session.json"
        session = ToolSession.open(path)
        session.adopt_schema(build_sc1())
        session.adopt_schema(build_sc2())
        analysis = session.analysis
        kernel = analysis.kernel
        with pytest.raises(Boom):
            with kernel.transaction():
                analysis.declare_equivalent(
                    "sc1.Student.Name", "sc2.Grad_student.Name"
                )
                analysis.declare_equivalent(
                    "sc1.Student.GPA", "sc2.Grad_student.GPA"
                )
                raise Boom()
        analysis.declare_equivalent(
            "sc1.Department.Name", "sc2.Department.Name"
        )
        recovered = ToolSession.open(path)  # the WAL alone
        assert state_key(recovered.analysis) == state_key(analysis)
        session.save(path)
        reloaded = ToolSession.load(path)
        assert state_key(reloaded.analysis) == state_key(analysis)
        assert kernel.export_state()["snapshots"] == []

    def test_rotation_happens_only_between_commit_records(
        self, tmp_path, monkeypatch
    ):
        # the inner groups of a transaction journal nothing; the one
        # commit record of the outermost commit ends its segment
        monkeypatch.setattr(wal_module, "SEGMENT_COMMITS", 1)
        path = tmp_path / "session.json"
        tool = ToolSession.open(path)
        tool.adopt_schema(build_sc1())
        tool.adopt_schema(build_sc2())
        analysis = tool.analysis
        directory = tmp_path / "session.json.wal"
        segments = sorted(directory.glob("wal-*.seg"))
        with analysis.kernel.transaction():
            analysis.declare_equivalent(
                "sc1.Student.Name", "sc2.Grad_student.Name"
            )
            analysis.declare_equivalent(
                "sc1.Student.GPA", "sc2.Grad_student.GPA"
            )
            assert sorted(directory.glob("wal-*.seg")) == segments
        after = sorted(directory.glob("wal-*.seg"))
        assert len(after) == len(segments) + 1
        assert after[-1].read_bytes() == b""
        for segment in after[:-1]:
            records, _good, damaged = scan_records(segment.read_bytes())
            assert not damaged
            assert records[-1]["t"] == "commit"
            assert [r["t"] for r in records].count("commit") == 1
        records, _good, _damaged = scan_records(after[-2].read_bytes())
        assert len(records[-1]["events"]) == 2

    def test_undo_after_a_published_rollback(self, session):
        # the rollback rebuilds the session by baseline + replay, which
        # restores the equivalence classes with their numbers; undoing
        # the declaration before it must restore the exact memberships
        from repro.evolution import edit_from_payload

        kernel = session.kernel
        session.apply_edit("sc1", edit_from_payload(
            {"kind": "add_attribute", "object": "Student",
             "attribute": {"name": "Age", "domain": {"kind": "integer"}}}
        ))
        session.declare_equivalent("sc1.Student.Name", "sc1.Department.Name")
        declared = state_key(session)
        with pytest.raises(Boom):
            with kernel.transaction():
                session.remove_from_class("sc1.Student.Name")
                raise Boom()
        assert state_key(session) == declared
        assert kernel.undo()
        assert session.registry.nontrivial_classes() == []


#: the Screen 7 declarations of the paper's sitting
PAPER_DECLARATIONS = [
    ("sc1.Student.Name", "sc2.Grad_student.Name"),
    ("sc1.Student.Name", "sc2.Faculty.Name"),
    ("sc1.Student.GPA", "sc2.Grad_student.GPA"),
    ("sc1.Department.Name", "sc2.Department.Name"),
    ("sc1.Majors.Since", "sc2.Majors.Since"),
]


def class_numbers(session: AnalysisSession) -> dict[str, int]:
    """Every attribute's Screen 7 ``Eq_class #``."""
    numbers = {}
    for schema in session.schemas():
        for structure in schema:
            for attribute in structure.attributes:
                ref = f"{schema.name}.{structure.name}.{attribute.name}"
                numbers[ref] = session.registry.class_number(ref)
    return numbers


def add_integer(owner: str, name: str) -> AddAttribute:
    return AddAttribute(owner, Attribute(name, Domain(DomainKind.INTEGER)))


class TestEditRollback:
    @pytest.fixture
    def sitting(self, session):
        from repro.workloads.university import PAPER_ASSERTION_CODES

        # an attribute added by an edit is numbered after the schema's own
        session.apply_edit("sc1", add_integer("Student", "Age"))
        for first, second in PAPER_DECLARATIONS:
            session.declare_equivalent(first, second)
        for first, second, code in PAPER_ASSERTION_CODES:
            session.specify(first, second, code)
        # a redo tail: one more declaration, undone
        session.declare_equivalent("sc1.Student.GPA", "sc1.Department.Name")
        assert session.kernel.undo()
        return session

    def test_a_failed_edit_rolls_back_exactly(self, sitting, monkeypatch):
        kernel = sitting.kernel
        head, end = kernel.head, kernel.bus.offset
        assert end > head
        before = state_key(sitting)
        numbers = class_numbers(sitting)
        registry = sitting.registry
        evolve = registry.evolve_schema

        def evolve_then_fail(*args, **kwargs):
            evolve(*args, **kwargs)
            raise Boom()

        monkeypatch.setattr(registry, "evolve_schema", evolve_then_fail)
        with pytest.raises(Boom):
            sitting.apply_edit("sc1", add_integer("Department", "Budget"))
        assert state_key(sitting) == before
        assert class_numbers(sitting) == numbers
        assert (kernel.head, kernel.bus.offset) == (head, end)
        # the redo tail survived the rollback
        assert kernel.redo()
        assert sitting.registry.are_equivalent(
            "sc1.Student.GPA", "sc1.Department.Name"
        )

    def test_a_refused_edit_is_free(self, sitting):
        kernel = sitting.kernel
        head, end = kernel.head, kernel.bus.offset
        events = kernel.bus.events()
        network = sitting.object_network
        before = state_key(sitting)
        with pytest.raises(DuplicateNameError):
            sitting.apply_edit(
                "sc1",
                AddAttribute(
                    "Student", Attribute("Name", Domain(DomainKind.CHAR))
                ),
            )
        assert (kernel.head, kernel.bus.offset) == (head, end)
        assert kernel.bus.events() == events
        assert sitting.object_network is network
        assert state_key(sitting) == before
