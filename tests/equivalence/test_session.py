"""Tests for the :class:`AnalysisSession` facade."""

import pytest

from repro import AnalysisSession
from repro.assertions.kinds import AssertionKind, Relation, Source
from repro.errors import EquivalenceError
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
    build_sc4,
    paper_registry,
)


def paper_session() -> AnalysisSession:
    session = AnalysisSession([build_sc1(), build_sc2()])
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    session.declare_equivalent("sc1.Student.Name", "sc2.Faculty.Name")
    session.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
    session.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")
    session.declare_equivalent("sc1.Majors.Since", "sc2.Majors.Since")
    return session


class TestConstruction:
    def test_exported_from_repro(self):
        import repro

        assert repro.AnalysisSession is AnalysisSession

    def test_schemas_and_registry_are_mutually_exclusive(self):
        with pytest.raises(EquivalenceError):
            AnalysisSession([build_sc1()], registry=paper_registry())

    def test_components_share_one_counter_set(self):
        session = paper_session()
        assert session.registry.counters is session.counters
        assert session.object_network.counters is session.counters
        assert session.relationship_network.counters is session.counters

    def test_wrapping_an_existing_registry(self):
        session = AnalysisSession(registry=paper_registry())
        assert [schema.name for schema in session.schemas()] == ["sc1", "sc2"]
        assert session.registry.counters is session.counters

    def test_a_prebuilt_registry_session_can_rebuild(self):
        from repro.baselines import state_payload_fingerprint

        session = AnalysisSession(registry=paper_registry())
        kernel = session.kernel
        assert kernel.baseline == kernel.head > 0
        start = state_payload_fingerprint(session)
        kernel.checkout(kernel.head)
        assert state_payload_fingerprint(session) == start
        session.specify("sc1.Student", "sc2.Grad_student", 3)
        specified = state_payload_fingerprint(session)
        with pytest.raises(ValueError):
            with kernel.transaction():
                session.specify("sc1.Department", "sc2.Department", 1)
                raise ValueError("the block fails")
        assert state_payload_fingerprint(session) == specified
        assert kernel.undo()
        assert state_payload_fingerprint(session) == start
        kernel.checkout(kernel.bus.offset)
        assert state_payload_fingerprint(session) == specified

    def test_accepts_generator_of_schemas(self):
        session = AnalysisSession(s for s in [build_sc1(), build_sc2()])
        assert len(session.schemas()) == 2


class TestPaperFlow:
    def test_screen8_candidates(self):
        session = paper_session()
        pairs = session.candidate_pairs("sc1", "sc2")
        names = [
            (pair.first.object_name, pair.second.object_name)
            for pair in pairs
        ]
        assert names == [
            ("Department", "Department"),
            ("Student", "Grad_student"),
            ("Student", "Faculty"),
        ]

    def test_relationship_subphase_candidates(self):
        session = paper_session()
        pairs = session.candidate_pairs("sc1", "sc2", relationships=True)
        assert [(p.first.object_name, p.second.object_name) for p in pairs] == [
            ("Majors", "Majors")
        ]

    def test_full_integration_matches_figure5(self):
        session = paper_session()
        for first, second, code in PAPER_ASSERTION_CODES:
            session.specify(first, second, code)
        for first, second, code in PAPER_RELATIONSHIP_CODES:
            session.specify(first, second, code, relationships=True)
        result = session.integrate("sc1", "sc2")
        assert result.schema.get("Student")
        assert result.schema.get("Grad_student")
        merged = result.schema.get("E_Department")
        assert "D_Name" in merged.attribute_names()

    def test_string_references_throughout(self):
        session = paper_session()
        session.specify("sc1.Student", "sc2.Grad_student", AssertionKind.CONTAINS)
        assert session.feasible("sc1.Student", "sc2.Grad_student") == frozenset(
            {Relation.PPI}
        )
        assertion = session.assertion_for("sc1.Student", "sc2.Grad_student")
        assert assertion.kind is AssertionKind.CONTAINS
        assert session.explain("sc1.Student", "sc2.Grad_student") == [assertion]
        session.retract("sc1.Student", "sc2.Grad_student")
        assert session.assertion_for("sc1.Student", "sc2.Grad_student") is None

    def test_respecify_routes_to_network(self):
        session = paper_session()
        session.specify("sc1.Student", "sc2.Grad_student", AssertionKind.EQUALS)
        session.respecify(
            "sc1.Student", "sc2.Grad_student", AssertionKind.CONTAINS
        )
        assert session.assertion_for(
            "sc1.Student", "sc2.Grad_student"
        ).kind is AssertionKind.CONTAINS

    def test_implicit_category_assertion_seeded(self):
        session = AnalysisSession([build_sc4()])
        assertion = session.assertion_for("sc4.Grad_student", "sc4.Student")
        assert assertion is not None
        assert assertion.kind is AssertionKind.CONTAINED_IN
        assert assertion.source is Source.IMPLICIT


class TestSchemaLifecycle:
    def test_refresh_schema_reseeds(self):
        from repro.ecr.objects import EntitySet

        session = paper_session()
        session.specify("sc1.Student", "sc2.Grad_student", AssertionKind.EQUALS)
        session.schema("sc1").add(EntitySet("Library"))
        session.refresh_schema("sc1")
        # Networks were reseeded: the assertion is gone, the new object known.
        assert session.assertion_for("sc1.Student", "sc2.Grad_student") is None
        assert session.feasible("sc1.Library", "sc2.Faculty")

    def test_ocs_acs_views(self):
        session = paper_session()
        assert session.ocs("sc1", "sc2") is session.registry.ocs("sc1", "sc2")
        assert session.acs("sc1", "sc2") is session.registry.acs("sc1", "sc2")


class TestInstrumentation:
    def test_snapshot_and_reset(self):
        session = paper_session()
        session.candidate_pairs("sc1", "sc2")
        snapshot = session.counters_snapshot()
        assert snapshot["registry_mutations"] > 0
        assert snapshot["ordering_rebuilds"] == 1
        session.reset_counters()
        assert not any(session.counters_snapshot().values())
