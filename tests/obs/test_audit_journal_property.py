"""Property test: an audit log journals the kernel, step for step.

Hypothesis drives random audited :class:`ToolSession` sittings over the
paper's schemas, starting from sc1 and sc2: schemas adopted, added and
deleted, equivalences declared and removed, assertions specified
(refused ones too), retracted and respecified, undo, redo and checkout
(below the attach point too), schema edits (one whose transaction rolls
back too), integrations, and a log attached mid-session.  After every
step:

* the log survives a JSONL round trip and replays, verified;
* the replayed session has the live one's ``state_payload`` and the
  same integration result at its head;
* since the log's last anchor (its attach, or the snapshot written by a
  head move the log could not follow), the replayed kernel holds the
  live kernel's events: scope, action, payload and group boundaries,
  up to the head and as far past it as both hold a redo tail.  The
  live kernel keeps a tail the log never received past a re-anchor;
  the replay keeps one that a rolled-back transaction cut from the live
  log, since a rolled-back transaction writes nothing.
"""

from __future__ import annotations

import hashlib
import json
from copy import deepcopy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.evolution import edit_from_payload
from repro.obs.audit import AuditLog
from repro.obs.replay import replay, schema_fingerprint
from repro.tool.session import ToolSession
from repro.workloads.university import build_sc1, build_sc2, build_sc3, build_sc4

BUILDERS = {
    "sc1": build_sc1,
    "sc2": build_sc2,
    "sc3": build_sc3,
    "sc4": build_sc4,
}
SCHEMAS = ("sc1", "sc2", "sc3", "sc4", "sc5")

EQUIVALENCES = (
    ("sc1.Student.Name", "sc2.Grad_student.Name"),
    ("sc1.Student.Name", "sc2.Faculty.Name"),
    ("sc1.Student.GPA", "sc2.Grad_student.GPA"),
    ("sc1.Department.Name", "sc2.Department.Name"),
    ("sc1.Student.Name", "sc4.Student.Name"),
    ("sc1.Student.GPA", "sc4.Student.GPA"),
    ("sc2.Faculty.Name", "sc3.Instructor.Name"),
)
ATTRIBUTES = sorted({ref for pair in EQUIVALENCES for ref in pair})

PAIRS = (
    ("sc1.Student", "sc2.Grad_student"),
    ("sc1.Student", "sc2.Faculty"),
    ("sc1.Department", "sc2.Department"),
    ("sc2.Grad_student", "sc2.Faculty"),
    ("sc1.Student", "sc4.Student"),
    ("sc4.Grad_student", "sc2.Grad_student"),
)

EDITS = (
    ("sc1", {"kind": "add_attribute", "object": "Department",
             "attribute": {"name": "Budget", "domain": {"kind": "integer"}}}),
    ("sc2", {"kind": "rename_attribute", "object": "Faculty",
             "old": "Name", "new": "Full_name"}),
    ("sc1", {"kind": "drop_attribute", "object": "Student",
             "attribute": "GPA"}),
    ("sc2", {"kind": "add_class",
             "structure": {"kind": "e", "name": "Campus", "attributes": [
                 {"name": "CName", "domain": {"kind": "char"},
                  "is_key": True}]}}),
    ("sc2", {"kind": "drop_class", "object": "Campus", "cascade": True}),
    ("sc5", {"kind": "add_class",
             "structure": {"kind": "e", "name": "Student", "attributes": [
                 {"name": "Name", "domain": {"kind": "char"},
                  "is_key": True}]}}),
)


class Rollback(Exception):
    """Raised inside a transaction to roll it back."""


operations = st.one_of(
    st.tuples(st.just("adopt"), st.sampled_from(sorted(BUILDERS))),
    st.tuples(st.just("add"), st.just("sc5")),
    st.tuples(st.just("delete"), st.sampled_from(SCHEMAS[1:])),
    st.tuples(st.just("declare"), st.sampled_from(EQUIVALENCES)),
    st.tuples(st.just("remove"), st.sampled_from(ATTRIBUTES)),
    st.tuples(
        st.sampled_from(("specify", "specify", "respecify")),
        st.sampled_from(PAIRS),
        st.integers(min_value=0, max_value=5),
    ),
    st.tuples(st.just("retract"), st.sampled_from(PAIRS)),
    st.tuples(st.sampled_from(("undo", "redo"))),
    st.tuples(st.just("checkout"), st.integers(min_value=0, max_value=8)),
    st.tuples(
        st.sampled_from(("edit", "edit_rollback")),
        st.sampled_from(range(len(EDITS))),
    ),
    st.tuples(
        st.just("integrate"),
        st.sampled_from((("sc1", "sc2"), ("sc1", "sc4"), ("sc2", "sc5"))),
    ),
    st.tuples(st.just("attach")),
)


def apply_operation(tool: ToolSession, operation) -> None:
    verb, *args = operation
    analysis = tool.analysis
    kernel = analysis.kernel
    if verb == "adopt":
        tool.adopt_schema(BUILDERS[args[0]]())
    elif verb == "add":
        tool.add_schema(args[0])
    elif verb == "delete":
        tool.delete_schema(args[0])
    elif verb == "declare":
        analysis.declare_equivalent(*args[0])
    elif verb == "remove":
        analysis.remove_from_class(args[0])
    elif verb == "specify":
        analysis.specify(*args[0], args[1])
    elif verb == "respecify":
        analysis.respecify(*args[0], args[1])
    elif verb == "retract":
        analysis.retract(*args[0])
    elif verb == "undo":
        tool.undo()
    elif verb == "redo":
        tool.redo()
    elif verb == "checkout":
        kernel.checkout(max(kernel.baseline, kernel.head - args[0]))
        tool._after_time_travel()
    elif verb in ("edit", "edit_rollback"):
        schema, payload = EDITS[args[0]]
        edit = edit_from_payload(deepcopy(payload))
        if verb == "edit":
            tool.apply_edit(schema, edit)
            return
        try:
            with kernel.transaction():
                tool.apply_edit(schema, edit)
                raise Rollback()
        except Rollback:
            pass
        tool._after_time_travel()
    elif verb == "integrate":
        analysis.integrate(*args[0])
    else:
        raise AssertionError(f"unknown operation {verb!r}")


def state_key(session) -> str:
    return hashlib.sha256(
        json.dumps(session.state_payload(), sort_keys=True).encode()
    ).hexdigest()


def result_key(session) -> str | None:
    result = session.kernel.result_at_head()
    return None if result is None else schema_fingerprint(result.schema)


def journal(events) -> list[tuple]:
    """Scope, action, payload and whether the event opens a group."""
    return [
        (
            event.scope,
            event.action,
            event.payload,
            index == 0 or event.txn != events[index - 1].txn,
        )
        for index, event in enumerate(events)
    ]


def check(live, log: AuditLog, origin: int) -> None:
    outcome = replay(AuditLog.from_jsonl(log.to_jsonl()))
    assert outcome.verified
    replayed = outcome.session
    assert state_key(replayed) == state_key(live)
    assert result_key(replayed) == result_key(live)
    kernel, mirror = live.kernel, replayed.kernel
    base = mirror.baseline
    assert mirror.head - base == kernel.head - origin
    recorded, mirrored = kernel.bus.events(origin), mirror.bus.events(base)
    # past the head either side may hold a redo tail the other lacks: the
    # live one past a re-anchor, the replayed one past a rolled-back cut
    common = max(kernel.head - origin, min(len(recorded), len(mirrored)))
    assert journal(mirrored[:common]) == journal(recorded[:common])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(operations, max_size=6),
    st.lists(operations, min_size=8, max_size=40),
)
def test_audited_sittings_replay_step_for_step(before, after):
    tool = ToolSession()
    tool.adopt_schema(build_sc1())
    tool.adopt_schema(build_sc2())
    for operation in before:
        if operation[0] == "attach":
            continue
        try:
            apply_operation(tool, operation)
        except ReproError:
            pass
    log = tool.analysis.attach_audit()
    origin = tool.analysis.kernel.head
    check(tool.analysis, log, origin)
    for operation in after:
        if operation[0] == "attach":
            log = tool.analysis.attach_audit()
            origin = tool.analysis.kernel.head
        else:
            seen = len(log)
            try:
                apply_operation(tool, operation)
            except ReproError:
                pass  # refusals and conflicts are part of the sitting
            if any(
                event.action == "snapshot" for event in log.events[seen:]
            ):
                origin = tool.analysis.kernel.head
        check(tool.analysis, log, origin)


def test_a_snapshot_replays_the_integration_on_the_state_it_saw():
    # an integration computed before the head, then a change, then a
    # snapshot: the snapshot's integration re-ran on the head's state,
    # which diverged from the recorded fingerprint or failed outright
    for change in (
        lambda tool: tool.analysis.declare_equivalent(
            "sc1.Department.Name", "sc2.Department.Name"
        ),
        lambda tool: tool.delete_schema("sc2"),
    ):
        tool = ToolSession()
        tool.adopt_schema(build_sc1())
        tool.adopt_schema(build_sc2())
        tool.analysis.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        tool.analysis.integrate("sc1", "sc2")
        change(tool)
        log = tool.analysis.attach_audit()
        assert "state" in log.events[0].payload["integration"]
        check(tool.analysis, log, tool.analysis.kernel.head)
