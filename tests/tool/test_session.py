"""Tests for the tool session state."""

import pytest

from repro.errors import ToolError
from repro.tool.session import ToolSession
from repro.workloads.university import build_sc1, build_sc2


@pytest.fixture
def session():
    return ToolSession()


@pytest.fixture
def loaded(session):
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    session.select_pair("sc1", "sc2")
    return session


class TestSchemaManagement:
    def test_add_and_get(self, session):
        session.add_schema("s")
        assert session.schema("s").name == "s"

    def test_duplicate_rejected(self, session):
        session.add_schema("s")
        with pytest.raises(ToolError):
            session.add_schema("s")

    def test_delete_clears_state(self, loaded):
        loaded.delete_schema("sc2")
        assert loaded.selected_pair is None
        with pytest.raises(ToolError):
            loaded.schema("sc2")

    def test_delete_unknown(self, session):
        with pytest.raises(ToolError):
            session.delete_schema("ghost")

    def test_adopt_registers_everything(self, loaded):
        assert loaded.registry.class_number("sc1.Student.Name") >= 1
        # implicit network seeding happened
        assert loaded.object_network.objects()

    def test_adopt_duplicate_rejected(self, loaded):
        with pytest.raises(ToolError):
            loaded.adopt_schema(build_sc1())


class TestPairSelection:
    def test_requires_selection(self, session):
        with pytest.raises(ToolError):
            session.require_pair()

    def test_same_schema_rejected(self, loaded):
        with pytest.raises(ToolError):
            loaded.select_pair("sc1", "sc1")

    def test_unknown_schema_rejected(self, loaded):
        with pytest.raises(ToolError):
            loaded.select_pair("sc1", "ghost")


class TestIntegrationFlow:
    def test_candidates_require_equivalences(self, loaded):
        assert loaded.candidate_pairs() == []
        loaded.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        assert len(loaded.candidate_pairs()) >= 1

    def test_integrate_produces_result(self, loaded):
        result = loaded.integrate()
        assert loaded.result is result
        assert loaded.require_result() is result

    def test_require_result_before_integration(self, session):
        with pytest.raises(ToolError):
            session.require_result()

    def test_integrated_structure_lookup(self, loaded):
        loaded.integrate()
        assert loaded.integrated_structure("Student") is not None
        with pytest.raises(ToolError):
            loaded.integrated_structure("Ghost")

    def test_network_for(self, loaded):
        assert loaded.network_for(False) is loaded.object_network
        assert loaded.network_for(True) is loaded.relationship_network
