"""Tests for the tool session state."""

import gc
import weakref

import pytest

from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.errors import DuplicateNameError, ToolError
from repro.evolution import AddAttribute
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


class TestEvolution:
    def test_a_refused_edit_leaves_the_tool_untouched(self, loaded):
        loaded.integrate()
        loaded.connect_federation()
        federation, result = loaded.federation, loaded.result
        schema = loaded.schemas["sc1"]
        duplicate = AddAttribute(
            "Department", Attribute("Name", Domain(DomainKind.CHAR))
        )
        with pytest.raises(DuplicateNameError):
            loaded.apply_edit("sc1", duplicate)
        assert loaded.federation is federation
        assert loaded.result is result
        assert loaded.schemas["sc1"] is schema
        assert loaded.selected_pair == ("sc1", "sc2")

    def test_a_rolled_back_edit_leaves_the_registry_schemas(
        self, loaded, monkeypatch
    ):
        class Boom(Exception):
            pass

        loaded.integrate()
        loaded.connect_federation()
        federation, result = loaded.federation, loaded.result
        registry = loaded.analysis.registry
        evolve = registry.evolve_schema

        def evolve_then_fail(*args, **kwargs):
            evolve(*args, **kwargs)
            raise Boom()

        monkeypatch.setattr(registry, "evolve_schema", evolve_then_fail)
        budget = AddAttribute(
            "Department", Attribute("Budget", Domain(DomainKind.INTEGER))
        )
        with pytest.raises(Boom):
            loaded.apply_edit("sc1", budget)
        schema = loaded.schemas["sc1"]
        assert schema is loaded.analysis.registry.schema("sc1")
        assert not schema.get("Department").has_attribute("Budget")
        assert loaded.schema("sc1") is schema
        assert loaded.selected_pair == ("sc1", "sc2")
        # the federation stays attached, reading the rebuilt network
        assert loaded.federation is federation
        assert federation.planner.object_network is loaded.object_network
        assert loaded.result is result

    def test_a_rolled_back_edit_repoints_the_component_stores(
        self, loaded, monkeypatch
    ):
        class Boom(Exception):
            pass

        loaded.integrate()
        loaded.connect_federation()
        registry = loaded.analysis.registry
        evolve = registry.evolve_schema

        def evolve_then_fail(*args, **kwargs):
            evolve(*args, **kwargs)
            raise Boom()

        monkeypatch.setattr(registry, "evolve_schema", evolve_then_fail)
        budget = AddAttribute(
            "Department", Attribute("Budget", Domain(DomainKind.INTEGER))
        )
        with pytest.raises(Boom):
            loaded.apply_edit("sc1", budget)
        backends = loaded.federation.executor.backends
        assert sorted(backends) == ["sc1", "sc2"]
        for name, backend in backends.items():
            assert backend.store.schema is loaded.analysis.registry.schema(name)
        assert not backends["sc1"].store.schema.get("Department").has_attribute(
            "Budget"
        )
        rows = loaded.execute_global_request("select Name from Department")
        assert rows.rows


class TestFederationLifetime:
    def test_undo_and_reconnect_leave_no_stale_planner(self, loaded):
        """Each round attaches a federation, edits, and undoes the edit.

        The undo drops the federation; its planner must stop listening
        to the registry and be freed, so the bus's subscriptions stay
        as many as one attached planner needs.
        """
        loaded.integrate()
        bus = loaded.analysis.kernel.bus
        planners = []
        counts = []
        for _ in range(5):
            loaded.connect_federation()
            planners.append(weakref.ref(loaded.federation.planner))
            loaded.registry.declare_equivalent(
                "sc1.Student.Name", "sc2.Grad_student.Name"
            )
            loaded.undo()
            assert loaded.federation is None
            counts.append(len(bus._subscriptions))
        gc.collect()
        assert len(set(counts)) == 1
        assert [planner() for planner in planners] == [None] * 5

    def test_a_new_federation_replaces_the_old_planner(self, loaded):
        loaded.integrate()
        loaded.connect_federation()
        old = loaded.federation
        loaded.connect_federation()
        assert old.planner._subscription is None
        gc.collect()
        planner = loaded.federation.planner
        before = planner.version_token()
        loaded.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        assert planner.version_token() == before + 1

    def test_loading_a_save_drops_the_federation(self, loaded, tmp_path):
        loaded.integrate()
        path = tmp_path / "s.json"
        loaded.save(path)
        loaded.connect_federation()
        planner = weakref.ref(loaded.federation.planner)
        loaded.restore_from(path)
        assert loaded.federation is None
        gc.collect()
        assert planner() is None
