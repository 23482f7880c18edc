"""The kernel's head-keyed indexes: the read memo and the integration index.

Both rest on one fact: the session state at an offset is a function of
the log up to that offset.  :meth:`Kernel.read_at_head` remembers reads
by head; :meth:`Kernel.integration_at_head` and
:meth:`Kernel.result_at_head` bisect offsets the kernel keeps instead of
walking the log back from the head.  The properties here compare both
with the computation they replace, over random histories with undo,
redo, checkout, truncation and restore.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.equivalence.session import AnalysisSession
from repro.kernel import Kernel
from repro.kernel.kernel import READ_MEMO_HEADS, READ_MEMO_KEYS
from repro.workloads.university import build_sc1, build_sc2
from tests.kernel.test_property import apply_operation, fingerprint, operations


def fresh_session() -> AnalysisSession:
    return AnalysisSession([build_sc1(), build_sc2()])


def memo_fingerprint(session: AnalysisSession) -> str:
    return session.kernel.read_at_head("fp", lambda: fingerprint(session))


# -- the read memo ----------------------------------------------------------------


def test_declare_undo_declare_is_not_served_the_first_answer():
    """After X, undo, Y: head and log length equal X's, the state does not."""
    session = fresh_session()
    kernel = session.kernel
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    after_x = memo_fingerprint(session)
    head, offset = kernel.head, kernel.bus.offset
    assert kernel.undo()
    session.declare_equivalent("sc1.Department.Name", "sc2.Department.Name")
    assert (kernel.head, kernel.bus.offset) == (head, offset)
    assert memo_fingerprint(session) == fingerprint(session) != after_x


def test_a_read_is_computed_once_per_head():
    session = fresh_session()
    kernel = session.kernel
    calls = []

    def compute():
        calls.append(kernel.head)
        return fingerprint(session)

    start = kernel.read_at_head("fp", compute)
    assert kernel.read_at_head("fp", compute) == start
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    declared = kernel.read_at_head("fp", compute)
    kernel.undo()
    assert kernel.read_at_head("fp", compute) == start
    kernel.redo()
    assert kernel.read_at_head("fp", compute) == declared
    assert len(calls) == 2


def test_nothing_computed_inside_a_group_is_stored():
    session = fresh_session()
    kernel = session.kernel
    with kernel.group():
        session.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        inside = kernel.read_at_head("fp", lambda: "mid-group")
        assert inside == "mid-group"
    assert kernel.read_at_head("fp", lambda: fingerprint(session)) == (
        fingerprint(session)
    )
    with pytest.raises(ValueError):
        with kernel.transaction():
            assert kernel.read_at_head("other", lambda: 1) == 1
            raise ValueError
    assert kernel.read_at_head("other", lambda: 2) == 2


def test_the_memo_keeps_a_bounded_number_of_heads_and_keys():
    session = fresh_session()
    kernel = session.kernel
    for name in ("Name", "GPA"):
        session.declare_equivalent(
            f"sc1.Student.{name}", f"sc2.Grad_student.{name}"
        )
        session.remove_from_class(f"sc1.Student.{name}")
    heads = []
    while True:
        heads.append(kernel.head)
        for key in range(READ_MEMO_KEYS + 3):
            kernel.read_at_head(key, lambda: key)
        if not kernel.undo():
            break
    assert len(heads) > READ_MEMO_HEADS
    assert len(kernel._reads) == READ_MEMO_HEADS
    for answers in kernel._reads.values():
        assert len(answers) == READ_MEMO_KEYS
    assert list(kernel._reads) == heads[-READ_MEMO_HEADS:]


def test_truncation_and_a_new_baseline_cut_the_memo():
    session = fresh_session()
    kernel = session.kernel
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    memo_fingerprint(session)
    declared_at = kernel.head
    kernel.undo()
    memo_fingerprint(session)
    session.declare_equivalent("sc1.Student.GPA", "sc2.Grad_student.GPA")
    assert kernel.head == declared_at
    assert list(kernel._reads) == [declared_at - 1]
    kernel.set_baseline()
    assert kernel._reads == {}


def test_a_restored_kernel_starts_with_an_empty_memo():
    session = fresh_session()
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    memo_fingerprint(session)
    state = session.kernel.export_state()
    restored = Kernel.restore(state)
    rebuilt = AnalysisSession(kernel=restored)
    restored.checkout(state["head"])
    assert restored._reads == {}
    assert memo_fingerprint(rebuilt) == fingerprint(session)


# -- the integration index ---------------------------------------------------------


def walked_integration(kernel: Kernel):
    """The log walk ``integration_at_head`` used to make."""
    for offset in range(kernel.head, kernel.baseline, -1):
        event = kernel.bus.event_at(offset)
        if event.scope == "session" and event.action == "integrate":
            return event
    return None


def walked_result(kernel: Kernel):
    """The log walk ``result_at_head`` used to make."""
    for offset in range(kernel.head, kernel.baseline, -1):
        event = kernel.bus.event_at(offset)
        if event.scope == "session" and event.action == "integrate":
            return kernel._results_by_offset.get(offset)
        if event.scope == "evolution" and event.action == "apply_edit":
            reintegrated = kernel._results_by_offset.get(offset)
            if reintegrated is not None:
                return reintegrated
    return None


steps = st.one_of(
    operations,
    st.tuples(st.just("undo")),
    st.tuples(st.just("redo")),
    st.tuples(st.just("checkout"), st.floats(min_value=0, max_value=1)),
    st.tuples(st.just("restore")),
)


def apply_step(session: AnalysisSession, step) -> AnalysisSession:
    kernel = session.kernel
    verb = step[0]
    if verb == "undo":
        kernel.undo()
    elif verb == "redo":
        kernel.redo()
    elif verb == "checkout":
        span = kernel.bus.offset - kernel.baseline
        kernel.checkout(kernel.baseline + round(step[1] * span))
    elif verb == "restore":
        state = kernel.export_state()
        restored = Kernel.restore(state)
        session = AnalysisSession(kernel=restored)
        restored.checkout(state["head"])
    else:
        apply_operation(session, step)
    return session


@settings(max_examples=25, deadline=None)
@given(st.lists(steps, max_size=18))
def test_the_head_indexes_equal_the_log_walk(history):
    session = fresh_session()
    for step in history:
        session = apply_step(session, step)
        kernel = session.kernel
        assert kernel.integration_at_head() is walked_integration(kernel)
        assert kernel.result_at_head() is walked_result(kernel)
        assert memo_fingerprint(session) == fingerprint(session)
