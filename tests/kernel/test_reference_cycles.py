"""A finished session is freed by reference counting alone.

The session owns its kernel, the kernel its bus, the registry its cached
views; every edge back toward an owner is weak.  So dropping the last
reference to a session frees the whole graph at once, and the cycle
collector finds none of it.  Each case runs with the collector off and
``gc.DEBUG_SAVEALL`` on, drops what it built, then collects: no object
of a ``repro`` type may turn up in ``gc.garbage``.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.assertions.kinds import Source
from repro.ecr.schema import ObjectRef
from repro.equivalence.session import AnalysisSession
from repro.errors import ConflictError, KernelError
from repro.kernel.events import Command
from repro.obs.audit import AuditLog
from repro.service import ServiceApp, TenantAuth
from repro.tool.session import ToolSession
from repro.workloads.generator import GeneratorConfig, generate_schema_pair
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
)

from tests.service.conftest import SC1_DDL, SC2_DDL, TOKENS, Client


def repro_garbage(run) -> Counter:
    """The ``repro`` objects in cycles once ``run()`` returns."""
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro.")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class Boom(Exception):
    pass


def sitting() -> None:
    """A whole sitting on a generated world, every kind of DDA step."""
    pair = generate_schema_pair(
        GeneratorConfig(seed=1000, concepts=8, category_rate=1.0, contradictions=1)
    )
    session = AnalysisSession([pair.first, pair.second])
    first, second = pair.first.name, pair.second.name
    kernel = session.kernel
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    candidates = session.candidate_pairs(first, second, include_zero=True)
    for planted in pair.contradictions:
        base, *extras = planted.all_facts
        for fact in (base, *extras[:-1]):
            session.specify(*fact)
        with pytest.raises(ConflictError) as refused:
            session.specify(*extras[-1])
        assert refused.value.report.minimal_conflict()
        del refused
    network = session.object_network
    for candidate in candidates:
        if network.is_undetermined(candidate.first, candidate.second):
            kind = pair.truth.assertion_between(candidate.first, candidate.second)
            session.specify(candidate.first, candidate.second, kind)
    answered = [
        assertion for assertion in network.specified_assertions()
        if assertion.source is Source.DDA
    ]
    target = answered[len(answered) // 2]
    session.retract(target.first, target.second)
    session.specify(target.first, target.second, target.kind)
    session.respecify(target.first, target.second, target.kind)
    network.trial(target.first, target.second, target.kind)
    session.explain_assertion(target.first, target.second, target.kind)
    session.suggest_assertions(first, second, limit=3)
    for candidate in candidates[:5]:
        session.explain(candidate.first, candidate.second)
    session.integrate(first, second)
    assert kernel.undo()
    kernel.checkout(kernel.head - 3)
    # the checkout rebuilt the networks in place
    survivor = next(
        assertion
        for assertion in session.object_network.specified_assertions()
        if assertion.source is Source.DDA
    )
    with pytest.raises(Boom):
        with kernel.transaction():
            session.retract(survivor.first, survivor.second)
            raise Boom()


def tool_session_with_federation() -> None:
    """The paper's sc1/sc2 sitting at the tool, with a federation attached."""
    session = ToolSession()
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    session.select_pair("sc1", "sc2")
    registry = session.registry
    registry.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    registry.declare_equivalent("sc1.Student.Name", "sc2.Faculty.Name")
    registry.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
    registry.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")
    registry.declare_equivalent("sc1.Majors.Since", "sc2.Majors.Since")
    for network, codes in (
        (session.object_network, PAPER_ASSERTION_CODES),
        (session.relationship_network, PAPER_RELATIONSHIP_CODES),
    ):
        for first, second, code in codes:
            network.specify(ObjectRef.parse(first), ObjectRef.parse(second), code)
    session.integrate()
    session.connect_federation()
    session.execute_global_request("select D_Name from Student")
    session.undo()  # the integration, and the federation with it
    session.integrate()
    session.connect_federation()
    session.connect_federation()  # replaces the engine
    session.execute_global_request("select D_Name from Student")


def evict_and_purge(app: ServiceApp) -> None:
    """A service session parked, rehydrated, then purged for good."""
    client = Client(app)
    client.post("/v1/sessions", {"session_id": "s"})
    client.post("/v1/sessions/s/schemas", {"ddl": SC1_DDL})
    client.post("/v1/sessions/s/schemas", {"ddl": SC2_DDL})
    assert client.delete("/v1/sessions/s")[1]["evicted"]
    client.get("/v1/sessions/s")  # rehydrates
    app.manager.purge("acme", "s")


def test_a_dropped_sitting_leaves_no_cycles():
    assert repro_garbage(sitting) == Counter()


def test_a_dropped_tool_session_with_a_federation_leaves_no_cycles():
    assert repro_garbage(tool_session_with_federation) == Counter()


def test_an_evicted_and_purged_service_session_leaves_no_cycles(tmp_path):
    app = ServiceApp(
        tmp_path / "service", auth=TenantAuth.from_tokens(TOKENS), max_resident=4
    )
    try:
        assert repro_garbage(lambda: evict_and_purge(app)) == Counter()
    finally:
        app.close()


def test_time_travel_on_a_kernel_whose_session_is_gone():
    """The kernel holds its session weakly; once it is freed, every move
    that needs it is refused with a :class:`KernelError`."""
    session = AnalysisSession([build_sc1(), build_sc2()])
    kernel = session.kernel
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    session.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
    assert kernel.undo()  # leaves a redo tail
    del session
    assert kernel.session is None
    moves = [
        lambda: kernel.checkout(kernel.baseline),
        kernel.undo,
        kernel.redo,
        kernel.set_baseline,
        lambda: kernel.attach_audit(AuditLog()),
        lambda: kernel.dispatch(
            Command(
                "registry",
                "declare_equivalent",
                {"first": "sc1.Department.Name", "second": "sc2.Department.Name"},
            )
        ),
    ]
    for move in moves:
        with pytest.raises(KernelError, match="kernel has no bound session"):
            move()
