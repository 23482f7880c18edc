"""The typed results of the ToolSession facades.

``connect_federation`` / ``execute_global_request`` / ``recovery_info``
return frozen dataclasses whose ``to_wire()`` is plain JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.ecr.schema import ObjectRef
from repro.federation.engine import FederationEngine, FederationResult
from repro.tool import (
    FederationAttachment,
    GlobalRequestResult,
    RecoveryInfo,
    ToolSession,
)
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
)


@pytest.fixture
def session():
    s = ToolSession()
    s.adopt_schema(build_sc1())
    s.adopt_schema(build_sc2())
    s.select_pair("sc1", "sc2")
    s.registry.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    s.registry.declare_equivalent("sc1.Student.Name", "sc2.Faculty.Name")
    s.registry.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
    s.registry.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")
    s.registry.declare_equivalent("sc1.Majors.Since", "sc2.Majors.Since")
    for first, second, code in PAPER_ASSERTION_CODES:
        s.object_network.specify(
            ObjectRef.parse(first), ObjectRef.parse(second), code
        )
    for first, second, code in PAPER_RELATIONSHIP_CODES:
        s.relationship_network.specify(
            ObjectRef.parse(first), ObjectRef.parse(second), code
        )
    s.integrate()
    return s


class TestConnectFederation:
    def test_returns_frozen_attachment(self, session):
        attachment = session.connect_federation()
        assert isinstance(attachment, FederationAttachment)
        assert isinstance(attachment.engine, FederationEngine)
        assert session.federation is attachment.engine
        assert set(attachment.components) == {"sc1", "sc2"}
        # no stores passed in -> demo stores were seeded
        assert attachment.demo_components == attachment.components
        with pytest.raises(Exception):
            attachment.components = ()  # frozen

    def test_to_wire_is_json(self, session):
        wire = session.connect_federation().to_wire()
        assert json.loads(json.dumps(wire)) == wire
        assert wire["integrated_schema"]
        assert "engine" not in wire


class TestExecuteGlobalRequest:
    def test_returns_typed_result(self, session):
        session.connect_federation()
        result = session.execute_global_request("select D_Name from Student")
        assert isinstance(result, GlobalRequestResult)
        assert isinstance(result.raw, FederationResult)
        assert result.request == "select D_Name from Student"
        assert result.ok and not result.degraded
        assert result.rows  # the demo stores are populated
        assert all(isinstance(row, tuple) for row in result.rows)
        assert result.summary() == result.raw.summary()

    def test_to_wire_is_json(self, session):
        session.connect_federation()
        wire = session.execute_global_request("select D_Name from Student").to_wire()
        assert json.loads(json.dumps(wire)) == wire
        assert wire["row_count"] == len(wire["rows"])
        assert set(wire["components"]) == {"sc1", "sc2"}
        assert isinstance(wire["health"], dict)

    def test_query_still_lands_on_kernel_log(self, session):
        session.connect_federation()
        kernel = session.analysis.kernel
        before = kernel.bus.offset
        session.execute_global_request("select D_Name from Student")
        assert kernel.bus.offset == before + 1


class TestRecoveryInfo:
    def test_fresh_session_has_none(self):
        assert ToolSession().recovery_info() is None

    def test_open_surfaces_typed_info(self, tmp_path, session):
        path = tmp_path / "dict.json"
        session.save(path)
        reopened = ToolSession.open(path)
        info = reopened.recovery_info()
        assert isinstance(info, RecoveryInfo)
        assert info.source == "save"
        assert info.head == reopened.analysis.kernel.head
        wire = info.to_wire()
        assert json.loads(json.dumps(wire)) == wire
        assert wire["clean"] is True

    def test_wal_tail_is_reported(self, tmp_path, session):
        path = tmp_path / "dict.json"
        session.save(path)
        session.add_schema("extra")
        # the WAL now has events past the checkpoint; a reopen replays them
        reopened = ToolSession.open(path)
        info = reopened.recovery_info()
        assert info.used_wal
        assert info.events_replayed >= 1
        assert "extra" in reopened.schemas
