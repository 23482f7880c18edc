"""The kernel's two replay invariants, property-tested with Hypothesis.

Over random DDA sittings on the paper's sc1/sc2:

(a) restoring from the exported state — the baseline snapshot, taken at
    any point of the sitting, plus replay of the log past it — reaches a
    state bitwise-identical (SHA-256 over canonical JSON) to the live
    session and to replaying the full log from scratch; and
(b) checking out *any* prefix of the log equals re-running exactly that
    prefix against a fresh session.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equivalence.session import AnalysisSession
from repro.errors import ReproError
from repro.workloads.university import build_sc1, build_sc2

ATTRIBUTES = (
    "sc1.Student.Name",
    "sc1.Student.GPA",
    "sc1.Department.Name",
    "sc2.Grad_student.Name",
    "sc2.Grad_student.GPA",
    "sc2.Faculty.Name",
    "sc2.Department.Name",
)

OBJECTS = (
    "sc1.Student",
    "sc1.Department",
    "sc2.Grad_student",
    "sc2.Faculty",
    "sc2.Department",
)

# typed evolution edits, in wire-payload form; infeasible ones (dropping
# a class a relationship still references, dropping what was never added)
# simply raise and are swallowed like any other failed operation
EDITS = (
    ("sc1", {"kind": "add_attribute", "object": "Student",
             "attribute": {"name": "Age", "domain": {"kind": "integer"}}}),
    ("sc1", {"kind": "rename_attribute", "object": "Student",
             "old": "GPA", "new": "Grade_avg"}),
    ("sc1", {"kind": "drop_attribute", "object": "Student",
             "attribute": "GPA"}),
    ("sc2", {"kind": "add_class",
             "structure": {"kind": "e", "name": "Campus", "attributes": [
                 {"name": "CName", "domain": {"kind": "char"},
                  "is_key": True}]}}),
    ("sc2", {"kind": "drop_class", "object": "Campus", "cascade": True}),
    ("sc2", {"kind": "drop_relationship", "relationship": "Works",
             "cascade": True}),
    ("sc2", {"kind": "drop_class", "object": "Faculty", "cascade": True}),
)

operations = st.one_of(
    st.tuples(
        st.just("declare"),
        st.sampled_from(ATTRIBUTES),
        st.sampled_from(ATTRIBUTES),
    ),
    st.tuples(st.just("remove"), st.sampled_from(ATTRIBUTES)),
    st.tuples(
        st.just("specify"),
        st.sampled_from(OBJECTS),
        st.sampled_from(OBJECTS),
        st.integers(min_value=0, max_value=5),
    ),
    st.tuples(
        st.just("retract"),
        st.sampled_from(OBJECTS),
        st.sampled_from(OBJECTS),
    ),
    st.tuples(st.just("integrate")),
    st.tuples(st.just("edit"), st.sampled_from(range(len(EDITS)))),
)


def apply_operation(session: AnalysisSession, operation) -> None:
    verb = operation[0]
    try:
        if verb == "declare":
            session.declare_equivalent(operation[1], operation[2])
        elif verb == "remove":
            session.remove_from_class(operation[1])
        elif verb == "specify":
            session.specify(operation[1], operation[2], operation[3])
        elif verb == "retract":
            session.retract(operation[1], operation[2])
        elif verb == "edit":
            from copy import deepcopy

            from repro.evolution import edit_from_payload

            schema, payload = EDITS[operation[1]]
            session.apply_edit(schema, edit_from_payload(deepcopy(payload)))
        else:
            session.integrate("sc1", "sc2")
    except ReproError:
        pass  # failures are themselves recorded events


def fingerprint(session: AnalysisSession) -> str:
    """SHA-256 over the canonical JSON of the session's full state."""
    canonical = json.dumps(
        session.state_payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def drive(ops, *, baseline_at: int | None = None) -> AnalysisSession:
    """Run ``ops`` on a fresh sc1/sc2 session.

    With ``baseline_at``, the kernel's baseline snapshot is taken after
    that many operations (as a legacy restore does), so a later restore
    rebuilds through :func:`~repro.kernel.snapshots.apply_state` before
    it replays the rest of the log.
    """
    session = AnalysisSession([build_sc1(), build_sc2()])
    for index, operation in enumerate(ops):
        if index == baseline_at:
            session.kernel.set_baseline()
        apply_operation(session, operation)
    if baseline_at is not None and baseline_at >= len(ops):
        session.kernel.set_baseline()
    return session


def replay_prefix(events, offset: int) -> AnalysisSession:
    """A fresh session re-driven through the log's first ``offset`` events."""
    from repro.kernel.apply import apply_event
    from repro.errors import ReplayError

    fresh = AnalysisSession()

    def diverge(event, message):
        raise ReplayError(message)

    with fresh.kernel.bus.replaying():
        for event in events[:offset]:
            apply_event(fresh, event, diverge)
    return fresh


def restore(state) -> AnalysisSession:
    """Kernel.restore + checkout of the saved head, as every reload does."""
    from repro.kernel import Kernel

    restored_kernel = Kernel.restore(state)
    restored = AnalysisSession(kernel=restored_kernel)
    restored_kernel.checkout(state["head"])
    return restored


@settings(max_examples=20, deadline=None)
@given(st.lists(operations, max_size=15), st.data())
def test_snapshot_plus_tail_equals_full_replay(ops, data):
    baseline_at = data.draw(
        st.none() | st.integers(min_value=0, max_value=len(ops)),
        label="baseline_at",
    )
    live = drive(ops, baseline_at=baseline_at)
    kernel = live.kernel
    final = fingerprint(live)
    events = kernel.bus.events()

    # full replay from scratch
    assert fingerprint(replay_prefix(events, len(events))) == final

    # restore: the baseline snapshot (if any) + replay of the log past it
    state = kernel.export_state()
    assert len(state["snapshots"]) == (0 if baseline_at is None else 1)

    assert fingerprint(restore(state)) == final


#: two containments specified "out of order" around an equivalence
#: remove, then integrate
ORDER_SENSITIVE_OPS = [
    ("declare", "sc1.Student.Name", "sc1.Student.GPA"),
    ("specify", "sc2.Grad_student", "sc1.Department", 2),
    ("remove", "sc1.Student.Name"),
    ("specify", "sc1.Student", "sc2.Grad_student", 3),
    ("integrate",),
]


def test_snapshot_restore_is_insensitive_to_assertion_order():
    """Regression: integration output must not depend on specification order.

    A snapshot stores the canonical state payload, which sorts
    assertions — so :func:`~repro.kernel.snapshots.apply_state`
    re-specifies them in sorted, not historical, order.  With the
    baseline taken before the integrate, restoring rebuilds the baseline
    that way and then replays the integrate, whose fingerprint check
    used to fail on a different ``parents`` order of the integrated
    category.
    """
    live = drive(ORDER_SENSITIVE_OPS, baseline_at=4)
    state = live.kernel.export_state()
    restored = restore(state)  # used to raise ReplayError
    assert fingerprint(restored) == fingerprint(live)
    assert restored.kernel.result_at_head() is not None


def test_rollback_rebuild_is_insensitive_to_assertion_order():
    """The same case through a published-then-failed transaction.

    The rollback rebuilds the session at its entry offset by baseline +
    replay; the integrate after it must produce the schema a session
    that never rolled back produces, and reload to the live state.
    """
    from repro.ecr.json_io import schema_to_dict

    plain = drive(ORDER_SENSITIVE_OPS)
    live = drive(ORDER_SENSITIVE_OPS[:4])
    try:
        with live.kernel.transaction():
            apply_operation(
                live, ("declare", "sc1.Department.Name", "sc2.Faculty.Name")
            )
            raise _Abort()
    except _Abort:
        pass
    assert fingerprint(live) == fingerprint(drive(ORDER_SENSITIVE_OPS[:4]))
    result = live.integrate("sc1", "sc2")
    expected = plain.kernel.result_at_head()
    assert schema_to_dict(result.schema) == schema_to_dict(expected.schema)
    assert fingerprint(restore(live.kernel.export_state())) == fingerprint(live)


@settings(max_examples=20, deadline=None)
@given(st.lists(operations, min_size=1, max_size=12), st.data())
def test_any_prefix_checkout_equals_rerunning_the_prefix(ops, data):
    live = drive(ops)
    kernel = live.kernel
    events = kernel.bus.events()
    offset = data.draw(
        st.integers(min_value=0, max_value=len(events)), label="offset"
    )
    kernel.checkout(offset)
    assert fingerprint(live) == fingerprint(replay_prefix(events, offset))
    assert kernel.head == offset


class _Abort(Exception):
    """Raised inside a transaction to force its rollback."""


# the shared ``operations`` plus the kernel's ways back: a transaction
# that fails after 1-3 operations, undo and redo
time_travel_operations = st.one_of(
    operations,
    st.tuples(
        st.just("txn_fail"), st.lists(operations, min_size=1, max_size=3)
    ),
    st.tuples(st.just("undo")),
    st.tuples(st.just("redo")),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(time_travel_operations, min_size=1, max_size=10))
def test_rollback_and_time_travel_keep_the_saved_history_true(ops):
    """Rollbacks, undo and redo leave a log that reloads to the live state.

    After every step, restoring the exported kernel state and checking
    out its head fingerprints equal to the live session, and a redo that
    finds nothing to re-apply leaves the head where it was.
    """
    live = drive([])
    kernel = live.kernel
    for operation in ops:
        verb = operation[0]
        if verb == "txn_fail":
            try:
                with kernel.transaction():
                    for inner in operation[1]:
                        apply_operation(live, inner)
                    raise _Abort()
            except _Abort:
                pass
        elif verb == "undo":
            kernel.undo()
        elif verb == "redo":
            head = kernel.head
            if not kernel.redo():
                assert kernel.head == head
        else:
            apply_operation(live, operation)
        assert fingerprint(restore(kernel.export_state())) == fingerprint(
            live
        )
