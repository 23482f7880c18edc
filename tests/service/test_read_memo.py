"""Memoised session reads equal a fresh computation after every step.

``GET /v1/sessions/{sid}`` serves its ``state_fingerprint`` and
``GET .../suggestions`` its wire list through the kernel's read memo
(:meth:`repro.kernel.Kernel.read_at_head`).  The property drives random
service and tool sequences — declare, specify (refused ones too), undo,
redo, checkout, edits (a rolled-back one too), schema delete and
re-add, integrate, evict + rehydrate — and after every step compares
each memoised read, twice over so the second is a memo hit, with the
same read computed directly on the session.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.errors import ReproError
from repro.evolution import AddAttribute
from repro.service import ServiceApp, TenantAuth, state_fingerprint
from tests.service.conftest import SC1_DDL, SC2_DDL, TOKENS, Client

SC3_DDL = "schema sc3\nentity Pupil\n  attr Name : string key\n"
DDL = {"sc1": SC1_DDL, "sc2": SC2_DDL, "sc3": SC3_DDL}

ATTRIBUTES = (
    "sc1.Student.Name",
    "sc1.Department.Name",
    "sc2.Grad_student.Name",
    "sc2.Department.Name",
    "sc3.Pupil.Name",
)
OBJECTS = (
    "sc1.Student",
    "sc1.Department",
    "sc2.Grad_student",
    "sc2.Department",
    "sc3.Pupil",
)
KINDS = ("EQUALS", "CONTAINS", "CONTAINED_IN", "DISJOINT_NONINTEGRABLE")
#: the suggestion queries read after every step
QUERIES = (
    {"first": "sc1", "second": "sc2"},
    {"first": "sc1", "second": "sc2", "limit": "2"},
    {"first": "sc1", "second": "sc3"},
    {"first": "sc2", "second": "sc1", "relationships": "1"},
)
SEED_EQUIVALENCES = (
    ("sc1.Student.Name", "sc2.Grad_student.Name"),
    ("sc1.Student.Name", "sc3.Pupil.Name"),
)
SEED_ASSERTIONS = (
    ("sc1.Student", "sc2.Grad_student", "CONTAINS"),
    ("sc2.Grad_student", "sc3.Pupil", "EQUALS"),
)
EDIT = {
    "kind": "add_attribute",
    "object": "Student",
    "attribute": {"name": "Age", "domain": {"kind": "integer"}},
}

steps = st.one_of(
    st.tuples(
        st.just("declare"),
        st.sampled_from(ATTRIBUTES),
        st.sampled_from(ATTRIBUTES),
    ),
    st.tuples(
        st.just("specify"),
        st.sampled_from(OBJECTS),
        st.sampled_from(OBJECTS),
        st.sampled_from(KINDS),
    ),
    # refused while the seeded sc1.Student ⊇ sc2.Grad_student = sc3.Pupil
    # stands
    st.just(("specify", "sc1.Student", "sc3.Pupil", "DISJOINT_NONINTEGRABLE")),
    st.tuples(st.just("undo")),
    st.tuples(st.just("redo")),
    st.tuples(st.just("checkout"), st.floats(min_value=0, max_value=1)),
    st.tuples(st.just("edit")),
    st.tuples(st.just("rolled_back_edit")),
    st.tuples(st.just("delete_schema"), st.sampled_from(("sc2", "sc3"))),
    st.tuples(st.just("add_schema"), st.sampled_from(("sc2", "sc3"))),
    st.tuples(st.just("integrate")),
    st.tuples(st.just("evict")),
)


class Boom(Exception):
    pass


def rolled_back_edit(session) -> None:
    """An edit whose transaction fails after the registry evolved."""
    registry = session.analysis.registry
    evolve = registry.evolve_schema

    def evolve_then_fail(*args, **kwargs):
        evolve(*args, **kwargs)
        raise Boom()

    registry.evolve_schema = evolve_then_fail
    budget = AddAttribute(
        "Department", Attribute("Budget", Domain(DomainKind.INTEGER))
    )
    try:
        session.apply_edit("sc1", budget)
    except (Boom, ReproError):
        pass
    finally:
        registry.__dict__.pop("evolve_schema", None)


def apply_step(client: Client, app: ServiceApp, step) -> None:
    verb = step[0]
    base = "/v1/sessions/s1"
    if verb == "declare":
        client.post(
            f"{base}/equivalences", {"first": step[1], "second": step[2]}
        )
    elif verb == "specify":
        client.post(
            f"{base}/assertions",
            {"first": step[1], "second": step[2], "kind": step[3]},
        )
    elif verb in ("undo", "redo"):
        client.post(f"{base}/{verb}")
    elif verb == "edit":
        client.post(f"{base}/schemas/sc1/edits", {"edit": EDIT})
    elif verb == "delete_schema":
        client.delete(f"{base}/schemas/{step[1]}")
    elif verb == "add_schema":
        client.post(f"{base}/schemas", {"ddl": DDL[step[1]]})
    elif verb == "integrate":
        client.post(f"{base}/integrate", {"first": "sc1", "second": "sc2"})
    elif verb == "evict":
        client.delete(base)
    else:
        with app.manager.acquire("acme", "s1") as session:
            if verb == "rolled_back_edit":
                rolled_back_edit(session)
            else:
                kernel = session.analysis.kernel
                span = kernel.bus.offset - kernel.baseline
                kernel.checkout(kernel.baseline + round(step[1] * span))
                session._after_time_travel()


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def fresh_suggestions(analysis, query) -> str:
    try:
        suggestions = analysis.suggest_assertions(
            query["first"],
            query["second"],
            relationships="relationships" in query,
            limit=int(query.get("limit", 10)),
        )
    except ReproError as error:
        return f"error {type(error).__name__}"
    return canonical([suggestion.to_wire() for suggestion in suggestions])


def served_suggestions(client: Client, query) -> str:
    status, payload = client.get("/v1/sessions/s1/suggestions", query=query)
    if status != 200:
        return f"error {payload['error']['code']}"
    return canonical(payload["suggestions"])


def check_reads(client: Client, app: ServiceApp) -> None:
    served = [
        (
            client.get("/v1/sessions/s1")[1]["state_fingerprint"],
            [served_suggestions(client, query) for query in QUERIES],
        )
        for _ in range(2)
    ]
    with app.manager.acquire("acme", "s1") as session:
        fingerprint = state_fingerprint(session)
        fresh = [
            fresh_suggestions(session.analysis, query) for query in QUERIES
        ]
    for served_fingerprint, suggestions in served:
        assert served_fingerprint == fingerprint
        for got, want in zip(suggestions, fresh):
            if want.startswith("error "):
                assert got.startswith("error ")
            else:
                assert got == want


@settings(max_examples=60, deadline=None)
@given(st.lists(steps, min_size=3, max_size=20))
def test_memoised_reads_equal_a_fresh_computation(history):
    with tempfile.TemporaryDirectory() as root:
        app = ServiceApp(
            Path(root) / "service",
            auth=TenantAuth.from_tokens(TOKENS),
            max_resident=2,
        )
        try:
            client = Client(app)
            assert client.post("/v1/sessions", {"session_id": "s1"})[0] == 201
            for ddl in DDL.values():
                client.post("/v1/sessions/s1/schemas", {"ddl": ddl})
            for first, second in SEED_EQUIVALENCES:
                client.post(
                    "/v1/sessions/s1/equivalences",
                    {"first": first, "second": second},
                )
            for first, second, kind in SEED_ASSERTIONS:
                client.post(
                    "/v1/sessions/s1/assertions",
                    {"first": first, "second": second, "kind": kind},
                )
            check_reads(client, app)
            for step in history:
                apply_step(client, app, step)
                check_reads(client, app)
        finally:
            app.close()


def test_declare_undo_declare_serves_the_new_state(seeded):
    """Same head and log length after X, undo, Y; a different state."""
    sid = "/v1/sessions/s1"
    seeded.post(f"{sid}/schemas", {"ddl": SC3_DDL})
    seeded.post(
        f"{sid}/equivalences",
        {"first": "sc1.Department.Name", "second": "sc3.Pupil.Name"},
    )
    after_x = seeded.get(sid)[1]
    query = {"first": "sc1", "second": "sc3"}
    suggested_x = seeded.get(f"{sid}/suggestions", query=query)[1]
    seeded.post(f"{sid}/undo")
    seeded.post(
        f"{sid}/equivalences",
        {"first": "sc1.Student.Name", "second": "sc3.Pupil.Name"},
    )
    after_y = seeded.get(sid)[1]
    assert (after_y["head"], after_y["events"]) == (
        after_x["head"],
        after_x["events"],
    )
    assert after_y["state_fingerprint"] != after_x["state_fingerprint"]
    assert seeded.get(f"{sid}/suggestions", query=query)[1] != suggested_x
    with seeded.app.manager.acquire("acme", "s1") as session:
        assert after_y["state_fingerprint"] == state_fingerprint(session)
