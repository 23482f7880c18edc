"""The replication chaos property, plus deterministic crash cases.

Hypothesis drives a random sitting on the leader while a
:class:`~repro.faults.FaultPlan` schedules one simulated failure at a
replication crashpoint — a torn shipped frame (connection severed
mid-frame), a dropped leader read, a follower death mid-apply, or a
crash inside promotion's persist window.  The follower keeps polling
through the schedule, restarting from its committed state when it
"dies".  The property, bitwise by canonical ``state_payload``
fingerprint:

* at every observable moment the follower's state equals some state the
  leader actually committed (a prefix of its history — no torn frame,
  duplicated record or replay artifact ever surfaces), and
* once the faults stop, one clean round converges the follower to the
  leader's exact current state, after which promotion yields a leader
  of a strictly higher epoch and the fenced ex-leader refuses writes
  with the typed error.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.errors import ReproError
from repro.faults import FaultPlan, InjectedCrash
from repro.kernel import wal as wal_module
from repro.replication import (
    FencedError,
    ReplicaApplier,
    ReplicationCoordinator,
    ReplicationGapError,
    ShipCursor,
    Shipment,
    WalShipper,
    decode_frames,
    encode_frames,
)
from repro.tool.session import ToolSession
from repro.workloads.university import build_sc1, build_sc2

from tests.kernel.test_property import apply_operation, fingerprint, operations

REPLICATION_POINTS = (
    "repl.ship.read",
    "repl.ship.frame",
    "repl.apply.record",
    "repl.promote.persist",
)

crash_plans = st.builds(
    FaultPlan,
    crash_at=st.sampled_from(REPLICATION_POINTS),
    occurrence=st.integers(min_value=1, max_value=4),
    torn=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)

#: leader-side moves: library mutations (from the kernel property suite)
#: plus the replication-relevant structural ones
leader_moves = st.one_of(
    operations,
    st.just(("undo",)),
    st.just(("rotate",)),
    st.just(("checkpoint",)),
)


def apply_move(session: ToolSession, save_path: Path, move) -> None:
    if move[0] == "undo":
        try:
            session.undo()
        except ReproError:
            pass  # empty history: a no-op move
    elif move[0] == "rotate":
        session.analysis.kernel.wal.rotate()
    elif move[0] == "checkpoint":
        session.save(save_path)  # WAL reset: new generation
    else:
        apply_operation(session.analysis, move)


def replicate_round(
    shipper: WalShipper, applier: ReplicaApplier
) -> tuple[ReplicaApplier, bool]:
    """One poll → wire → apply round, with transit faults simulated.

    A connection severed mid-frame (``repl.ship.frame``) delivers the
    partial prefix — exactly what a real socket would have flushed; the
    follower's CRC re-verification drops the torn tail and the cursor
    advances only over what decoded, so the remainder re-ships next
    round.  The injected crash also settles the leader's tracked WAL
    files (its "process" died), so the second return value tells the
    caller to recover the leader.  A crash mid-apply propagates to the
    caller as the follower's death.
    """
    leader_died = False
    shipment = shipper.poll(applier.cursor)
    try:
        data = encode_frames(list(shipment.records))
    except InjectedCrash as crash:
        data = crash.partial or b""
        leader_died = True
    records, _good, _damaged = decode_frames(data)
    start = shipment.cursor.records - len(shipment.records)
    delivered = Shipment(
        records=tuple(records),
        cursor=ShipCursor(
            shipment.cursor.generation, start + len(records)
        ),
        restarted=shipment.restarted,
        damaged=shipment.damaged,
        quarantined=shipment.quarantined,
    )
    applier.apply(delivered)
    return applier, leader_died


@settings(max_examples=25, deadline=None)
@given(
    moves=st.lists(leader_moves, min_size=1, max_size=6),
    plan=crash_plans,
)
def test_follower_is_always_a_committed_prefix(moves, plan):
    # a segment every 3 commits: the stream crosses rotations
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        wal_module, "SEGMENT_COMMITS", 3
    ):
        save = Path(tmp) / "leader.json"
        session = ToolSession.open(save)
        # every WAL record boundary is a legitimate follower landing
        # spot, so the committed set must include the states between
        # the individual bootstrap commits too
        committed = {fingerprint(session.analysis)}
        session.adopt_schema(build_sc1())
        committed.add(fingerprint(session.analysis))
        session.adopt_schema(build_sc2())
        committed.add(fingerprint(session.analysis))
        shipper = WalShipper(f"{save}.wal")
        applier = ReplicaApplier()
        with faults.inject(plan):
            for move in moves:
                apply_move(session, save, move)
                committed.add(fingerprint(session.analysis))
                try:
                    applier, leader_died = replicate_round(
                        shipper, applier
                    )
                except InjectedCrash:
                    # follower death mid-apply (or a dropped leader
                    # read): it comes back with its committed prefix
                    # and no cursor (cold restart)
                    leader_died = True
                    applier = ReplicaApplier(state=applier.state())
                except ReplicationGapError:
                    pytest.fail("clean stream must never present a gap")
                if leader_died:
                    # any injected crash settles (closes) every tracked
                    # durable file, so the leader recovers from disk —
                    # landing on a committed state per the
                    # crash-anywhere property
                    session = ToolSession.open(save)
                    committed.add(fingerprint(session.analysis))
                observed = applier.fingerprint()
                if observed is not None:
                    assert observed in committed, (
                        f"follower diverged from every committed state "
                        f"under plan {plan}"
                    )
        # faults over: one clean round must converge exactly
        applier, _ = replicate_round(shipper, applier)
        assert applier.fingerprint() == fingerprint(session.analysis)
        assert (
            applier.applied_offset() == session.analysis.kernel.bus.offset
        )


@settings(max_examples=10, deadline=None)
@given(plan=crash_plans, moves=st.lists(leader_moves, max_size=3))
def test_promotion_fences_the_old_leader(moves, plan):
    with tempfile.TemporaryDirectory() as tmp:
        save = Path(tmp) / "leader.json"
        session = ToolSession.open(save)
        session.adopt_schema(build_sc1())
        for move in moves:
            apply_move(session, save, move)
        leader = ReplicationCoordinator(
            Path(tmp) / "leader-replication.json", role="leader"
        )
        follower = ReplicationCoordinator(
            Path(tmp) / "follower-replication.json", role="replica"
        )
        epoch = None
        with faults.inject(plan):
            try:
                epoch = follower.promote()
            except InjectedCrash:
                # death inside the persist window: the node resurrects
                # in its *old* role — promotion never half-happens
                revived = ReplicationCoordinator(
                    Path(tmp) / "follower-replication.json"
                )
                assert revived.role == "replica"
                follower = revived
        if epoch is None:
            epoch = follower.promote()
        assert epoch > 1
        assert leader.fence(epoch) is True
        with pytest.raises(ReproError) as caught:
            leader.require_writable()
        assert isinstance(caught.value, FencedError)
        assert caught.value.code == "replication_fenced"
        # fencing survives the ex-leader's own restart
        resurrected = ReplicationCoordinator(
            Path(tmp) / "leader-replication.json"
        )
        with pytest.raises(FencedError):
            resurrected.require_writable()
        # and a fenced node can never promote itself back
        with pytest.raises(FencedError):
            resurrected.promote()


def test_stale_leader_resurrection_cannot_win_epoch_race(tmp_path):
    """The ISSUE's stale-generation scenario, deterministically.

    Old leader at epoch 1 dies; the follower promotes to epoch 2.  The
    old leader resurrects *without* having been fenced (it was down
    during the fence call) — the moment it observes the new epoch on
    any exchange it fences itself, and its own promote attempts then
    fail forever.
    """
    old = ReplicationCoordinator(tmp_path / "old.json", role="leader")
    new = ReplicationCoordinator(tmp_path / "new.json", role="replica")
    epoch = new.promote()
    assert epoch == 2
    # resurrection: a fresh process over the same state file
    revived = ReplicationCoordinator(tmp_path / "old.json")
    assert revived.role == "leader"  # it does not know yet
    revived.observe_epoch(epoch)
    assert revived.role == "fenced"
    with pytest.raises(FencedError):
        revived.require_writable()


def test_replica_adopts_higher_epoch_without_fencing(tmp_path):
    replica = ReplicationCoordinator(tmp_path / "r.json", role="replica")
    replica.observe_epoch(7)
    assert replica.role == "replica"
    assert replica.epoch == 7
    # its own later promotion out-bids everything it has seen
    assert replica.promote() == 8
