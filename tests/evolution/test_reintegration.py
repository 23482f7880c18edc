"""A schema edit re-integrates the same way wherever the session lives.

``AnalysisSession.apply_edit`` re-integrates the pair of the latest
``session.integrate`` event and records the result against the edit's
own event, so live sessions, reloads, kernel exports, read replicas and
evicted-then-rehydrated service sessions all land on the result a cold
:class:`~repro.integration.integrator.Integrator` computes from the
edited state.
"""

from __future__ import annotations

import json
import logging

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions.kinds import AssertionKind
from repro.baselines import rebuild_session
from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.errors import SchemaError
from repro.evolution import AddAttribute
from repro.integration.integrator import Integrator
from repro.integration.options import IntegrationOptions
from repro.kernel.apply import schema_fingerprint
from repro.obs.replay import replay
from repro.obs.trace import tracing
from repro.replication import ReplicaApplier, WalShipper
from repro.service.manager import SessionManager
from repro.tool.session import ToolSession
from repro.workloads import (
    EvolutionConfig,
    GeneratorConfig,
    evolution_script,
    generate_schema_pair,
)
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
)

PAPER_EQUIVALENCES = [
    ("sc1.Student.Name", "sc2.Grad_student.Name"),
    ("sc1.Student.Name", "sc2.Faculty.Name"),
    ("sc1.Student.GPA", "sc2.Grad_student.GPA"),
    ("sc1.Department.Name", "sc2.Department.Name"),
    ("sc1.Majors.Since", "sc2.Majors.Since"),
]


def cold_digest(analysis, first, second, result_name="integrated",
                options=None):
    """(schema fingerprint, log) of a cold integration of the state."""
    rebuilt = rebuild_session(analysis)
    result = Integrator(
        rebuilt.registry,
        rebuilt.object_network,
        rebuilt.relationship_network,
        options if options is not None else IntegrationOptions(),
    ).integrate(first, second, result_name)
    return schema_fingerprint(result.schema), result.log


def digest(result):
    return schema_fingerprint(result.schema), result.log


def build_paper_world(session: ToolSession) -> None:
    """sc1/sc2, one equivalence, one assertion, integrated."""
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    session.analysis.declare_equivalent(
        "sc1.Department.Name", "sc2.Department.Name"
    )
    session.analysis.specify(
        "sc1.Department", "sc2.Department", AssertionKind.EQUALS
    )
    session.select_pair("sc1", "sc2")
    session.integrate()


def paper_world() -> ToolSession:
    session = ToolSession()
    build_paper_world(session)
    return session


def full_paper_world(options: IntegrationOptions) -> ToolSession:
    """The paper's whole sitting (Screens 7-9), integrated with ``options``."""
    session = ToolSession(options=options)
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    for first, second in PAPER_EQUIVALENCES:
        session.analysis.declare_equivalent(first, second)
    for first, second, code in PAPER_ASSERTION_CODES:
        session.analysis.specify(first, second, code)
    for first, second, code in PAPER_RELATIONSHIP_CODES:
        session.analysis.specify(first, second, code, relationships=True)
    session.select_pair("sc1", "sc2")
    session.integrate()
    return session


def attribute_edit(name="A1"):
    return AddAttribute("Department", Attribute(name, Domain(DomainKind.CHAR)))


class TestResidencyDoesNotChangeTheResult:
    def test_live_session(self):
        session = paper_world()
        outcome = session.apply_edit("sc1", attribute_edit())
        assert outcome.scope.integrated_patched
        assert "A1" in session.result.schema.get("E_Department").attribute_names()
        assert digest(session.result) == cold_digest(
            session.analysis, "sc1", "sc2"
        )

    def test_reload_then_edit(self, tmp_path):
        path = tmp_path / "paper.json"
        paper_world().save(path)
        reloaded = ToolSession.open(path, create=False)
        outcome = reloaded.apply_edit("sc1", attribute_edit())
        assert outcome.scope.integrated_patched
        assert digest(reloaded.result) == cold_digest(
            reloaded.analysis, "sc1", "sc2"
        )

    def test_export_after_the_edit(self):
        session = paper_world()
        session.apply_edit("sc1", attribute_edit())
        rebuilt = ToolSession.from_kernel_state(
            session.analysis.kernel.export_state()
        )
        expected = cold_digest(session.analysis, "sc1", "sc2")
        assert digest(rebuilt.result) == expected
        assert digest(session.result) == expected

    def test_read_replica(self, tmp_path):
        path = tmp_path / "leader.json"
        leader = ToolSession.open(path)
        shipper = WalShipper(f"{path}.wal")
        applier = ReplicaApplier()
        build_paper_world(leader)
        applier.apply(shipper.poll())
        leader.apply_edit("sc1", attribute_edit())
        applier.apply(shipper.poll(applier.cursor))
        replica = applier.session()
        expected = cold_digest(leader.analysis, "sc1", "sc2")
        assert digest(leader.result) == expected
        assert digest(replica.result) == expected

    def test_session_manager_that_evicts_between_requests(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=1)
        manager.create("acme", "paper")
        manager.create("acme", "other")

        def touch_other():
            with manager.acquire("acme", "other"):
                pass
            assert manager.resident_count() == 1

        with manager.acquire("acme", "paper") as session:
            build_paper_world(session)
        touch_other()
        before = manager.rehydrations
        with manager.acquire("acme", "paper") as session:
            outcome = session.apply_edit("sc1", attribute_edit())
            live = digest(session.result)
            expected = cold_digest(session.analysis, "sc1", "sc2")
        assert manager.rehydrations == before + 1
        assert outcome.scope.integrated_patched
        assert live == expected
        touch_other()
        with manager.acquire("acme", "paper") as session:
            assert digest(session.result) == expected


class TestBlastRadiusAfterTimeTravel:
    def assert_no_cluster_moved(self, session):
        rebuilt = session.analysis.counters.evolution_clusters_rebuilt
        outcome = session.apply_edit("sc1", attribute_edit())
        scope = outcome.scope
        assert scope.integrated_patched
        assert scope.clusters_total == 4
        assert scope.clusters_changed == 0
        assert (
            session.analysis.counters.evolution_clusters_rebuilt == rebuilt
        )
        assert "0/4 clusters" in scope.summary()

    def test_resident_session(self):
        self.assert_no_cluster_moved(paper_world())

    def test_after_undo_and_redo(self):
        session = paper_world()
        session.undo()
        assert session.result is None
        session.redo()
        self.assert_no_cluster_moved(session)

    def test_after_checkout_of_the_head(self):
        session = paper_world()
        kernel = session.analysis.kernel
        kernel.checkout(kernel.head)
        self.assert_no_cluster_moved(session)

    def test_a_new_assertion_moves_its_clusters(self):
        session = paper_world()
        session.analysis.specify(
            "sc1.Student", "sc2.Grad_student", AssertionKind.CONTAINS
        )
        outcome = session.apply_edit("sc1", attribute_edit())
        # {Student} and {Grad_student} became one cluster
        assert outcome.scope.clusters_changed == 1
        assert outcome.scope.clusters_total == 3


class TestReintegrationFollowsTheIntegrateEvent:
    def test_recorded_options_not_current_ones(self):
        session = full_paper_world(
            IntegrationOptions(pull_up_shared_attributes=True)
        )
        recorded = session.options
        session.options = IntegrationOptions()
        session.apply_edit("sc1", attribute_edit())
        expected = cold_digest(session.analysis, "sc1", "sc2", options=recorded)
        assert digest(session.result) == expected
        assert expected != cold_digest(session.analysis, "sc1", "sc2")

    def test_edit_of_another_schema_keeps_the_result(self):
        session = paper_world()
        session.adopt_schema(build_sc1().copy("sc3"))
        result = session.result
        outcome = session.apply_edit("sc3", attribute_edit())
        assert not outcome.scope.integrated_patched
        assert outcome.result is None
        assert session.result is result

    def test_edit_after_deleting_a_schema_of_the_pair(self, caplog):
        session = ToolSession()
        log = session.analysis.attach_audit()
        build_paper_world(session)
        session.delete_schema("sc2")
        with caplog.at_level(logging.WARNING, logger="repro"):
            outcome = session.apply_edit("sc1", attribute_edit())
        assert caplog.records == []  # skipped quietly, no traceback
        assert outcome.result is None
        assert not outcome.scope.integrated_patched
        assert "A1" in session.analysis.schema("sc1").get(
            "Department"
        ).attribute_names()
        # the audit replay takes the same branch and lands on the same state
        with caplog.at_level(logging.WARNING, logger="repro"):
            replayed = replay(log)
        assert caplog.records == []
        assert replayed.verified
        assert json.dumps(
            replayed.session.state_payload(), sort_keys=True
        ) == json.dumps(session.analysis.state_payload(), sort_keys=True)

    def test_the_outcome_carries_the_recorded_result(self):
        session = paper_world()
        outcome = session.apply_edit("sc1", attribute_edit())
        kernel = session.analysis.kernel
        assert outcome.result is session.result
        assert kernel.result_at_head() is outcome.result
        assert kernel.integration_at_head().payload["first"] == "sc1"

    def test_federation_follows_the_reintegrated_result(self):
        session = paper_world()
        session.connect_federation()
        planner = session.federation.planner
        session.apply_edit("sc1", attribute_edit())
        assert planner.integrated_schema is session.result.schema
        assert planner.mappings["sc1"].attributes[("Department", "A1")] == (
            "E_Department",
            "A1",
        )

    def test_undo_returns_to_the_pre_edit_result(self):
        session = paper_world()
        before = digest(session.result)
        session.apply_edit("sc1", attribute_edit())
        session.undo()
        assert digest(session.result) == before
        session.redo()
        assert digest(session.result) == cold_digest(
            session.analysis, "sc1", "sc2"
        )

    def test_only_a_missing_result_is_rederived(self):
        session = paper_world()
        session.apply_edit("sc1", attribute_edit())
        edited = digest(session.result)
        kernel = session.analysis.kernel
        with tracing() as tracer:
            session.undo()  # the inverse edit lands on a recorded result
            session.redo()
            kernel.checkout(kernel.head)
        assert tracer.by_name("evolution.repair.integration") == []
        assert digest(kernel.result_at_head()) == edited
        with tracing() as tracer:
            rebuilt = ToolSession.from_kernel_state(kernel.export_state())
        assert len(tracer.by_name("evolution.repair.integration")) == 1
        assert digest(rebuilt.result) == edited

    def test_failed_reintegration_keeps_the_edit_replayable(
        self, monkeypatch, caplog
    ):
        session = paper_world()
        result = session.result

        integrate = Integrator.integrate

        def broken(self, first, second, result_name="integrated"):
            # fails on the edited state only, exactly like a real defect
            department = self._registry.schema(first).get("Department")
            if "A1" in department.attribute_names():
                raise RuntimeError("integrator fault")
            return integrate(self, first, second, result_name)

        with monkeypatch.context() as patched:
            patched.setattr(Integrator, "integrate", broken)
            outcome = session.apply_edit("sc1", attribute_edit())
            assert outcome.result is None
            assert not outcome.scope.integrated_patched
            assert session.result is result
            assert "integrator fault" in caplog.text
            # replay takes the same branch: the edit still replays
            kernel = session.analysis.kernel
            kernel.checkout(kernel.head)
            assert digest(kernel.result_at_head()) == digest(result)
            assert kernel.head == kernel.bus.offset


def integrated_generated_session(seed: int, concepts: int) -> ToolSession:
    pair = generate_schema_pair(GeneratorConfig(seed=seed, concepts=concepts))
    session = ToolSession()
    session.adopt_schema(pair.first)
    session.adopt_schema(pair.second)
    for first, second in sorted(pair.truth.attribute_pairs):
        session.analysis.declare_equivalent(str(first), str(second))
    for (first, second), kind in sorted(
        pair.truth.object_assertions.items(),
        key=lambda item: (str(item[0][0]), str(item[0][1])),
    ):
        session.analysis.specify(str(first), str(second), kind)
    session.select_pair(pair.first.name, pair.second.name)
    session.integrate()
    return session


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    concepts=st.integers(min_value=6, max_value=10),
)
def test_every_scripted_edit_matches_a_cold_integration(seed, concepts):
    session = integrated_generated_session(seed, concepts)
    first, second = session.selected_pair
    config = EvolutionConfig(seed=seed, edits=6, invalidating_fraction=0.2)
    try:
        for step in evolution_script(session.analysis, config):
            session.apply_edit(step.schema, step.edit)
            assert digest(session.result) == cold_digest(
                session.analysis, first, second
            )
    except SchemaError:
        return  # this seed ran out of droppable asserted classes


def test_residency_holds_for_a_generated_world():
    session = integrated_generated_session(seed=5, concepts=8)
    first, second = session.selected_pair
    for step in evolution_script(
        session.analysis, EvolutionConfig(seed=5, edits=4,
                                          invalidating_fraction=0.0)
    ):
        session.apply_edit(step.schema, step.edit)
    rebuilt = ToolSession.from_kernel_state(
        session.analysis.kernel.export_state()
    )
    expected = cold_digest(session.analysis, first, second)
    assert digest(session.result) == expected
    assert digest(rebuilt.result) == expected
