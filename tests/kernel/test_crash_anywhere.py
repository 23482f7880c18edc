"""The crash-anywhere property: recovery always lands on committed state.

Hypothesis drives a random DDA sitting against a durable session while a
:class:`~repro.faults.FaultPlan` schedules a simulated process death at
a random crashpoint — possibly tearing the crashing write or losing
fsyncs — and optionally a checkpoint save mid-sitting.  Whatever the
aftermath, reopening the path must yield a state bitwise-identical
(canonical ``state_payload`` JSON) to the state after some *prefix* of
the attempted transactions: no torn transaction ever surfaces, and
nothing the recovery invents is observable.  Two refinements:

* the transaction in flight at the crash is a legitimate landing spot —
  its WAL record may have become durable before the "death"; and
* with honest fsyncs (no ``lost_fsync``), every *completed* transaction
  was fsynced before the next one started, so recovery may lose at most
  the one in flight — the durability lower bound.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.faults import CRASHPOINTS, FaultPlan, InjectedCrash
from repro.kernel import wal as wal_module
from repro.tool.session import ToolSession
from repro.workloads.university import build_sc1, build_sc2

from tests.kernel.test_property import apply_operation, fingerprint, operations

crash_plans = st.builds(
    FaultPlan,
    crash_at=st.sampled_from(CRASHPOINTS),
    occurrence=st.integers(min_value=1, max_value=12),
    torn=st.booleans(),
    lost_fsync=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)


@settings(max_examples=30, deadline=None)
@given(
    ops=st.lists(operations, min_size=1, max_size=8),
    plan=crash_plans,
    save_at=st.integers(min_value=-1, max_value=8),
)
def test_recovery_is_a_prefix_of_committed_transactions(ops, plan, save_at):
    # a segment every 2 commits → WAL rotation inside the sitting
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        wal_module, "SEGMENT_COMMITS", 2
    ):
        path = Path(tmp) / "session.json"
        session = ToolSession.open(path)
        session.adopt_schema(build_sc1())
        session.adopt_schema(build_sc2())
        segments = list(Path(f"{path}.wal").glob("wal-*.seg"))
        assert len(segments) >= 2, "the drive must cross a rotation"
        # every state a recovery may legitimately land on: after the
        # schemas (the last pre-fault commit) and after each later op
        committed = [fingerprint(session.analysis)]
        crashed = False
        with faults.inject(plan):
            try:
                for index, operation in enumerate(ops):
                    if index == save_at:
                        session.save(path)
                    apply_operation(session.analysis, operation)
                    committed.append(fingerprint(session.analysis))
            except InjectedCrash:
                crashed = True
                # the in-flight transaction is applied in memory and its
                # WAL record may or may not have become durable
                committed.append(fingerprint(session.analysis))
        del session  # the "process" is gone either way

        recovered = ToolSession.open(path)
        recovered_state = fingerprint(recovered.analysis)
        assert recovered_state in committed, (
            f"recovered state matches no committed prefix "
            f"(crashed={crashed}, report={recovered.last_recovery.to_dict()})"
        )
        if not crashed:
            # without a crash nothing may be lost: recovery is exact
            assert recovered_state == committed[-1]
        elif not plan.lost_fsync:
            # honest fsyncs: at most the in-flight transaction is lost
            assert recovered_state in committed[-2:], (
                f"a durably committed transaction was lost "
                f"(report={recovered.last_recovery.to_dict()})"
            )


@settings(max_examples=10, deadline=None)
@given(
    ops=st.lists(operations, min_size=1, max_size=5),
    plan=crash_plans,
)
def test_recovered_sessions_recover_again(ops, plan):
    """Crash, recover, mutate, crash again (no injection): still consistent."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "session.json"
        session = ToolSession.open(path)
        session.adopt_schema(build_sc1())
        session.adopt_schema(build_sc2())
        with faults.inject(plan):
            try:
                for operation in ops:
                    apply_operation(session.analysis, operation)
            except InjectedCrash:
                pass
        del session

        survivor = ToolSession.open(path)
        apply_operation(survivor.analysis, ("declare",
            "sc1.Student.Name", "sc2.Grad_student.Name"))
        expected = fingerprint(survivor.analysis)
        del survivor

        final = ToolSession.open(path)
        assert fingerprint(final.analysis) == expected
