"""Follower replay: parity, truncate, gaps, resync, frames."""

from __future__ import annotations

import pytest

from repro.replication import (
    ReplicaApplier,
    ReplicationGapError,
    ShipCursor,
    Shipment,
    WalShipper,
    decode_frames,
    encode_frames,
    payload_fingerprint,
)

from tests.replication.conftest import durable_session


def wal_dir(path):
    return f"{path}.wal"


def leader_fingerprint(session):
    return payload_fingerprint(session.analysis.state_payload())


def synced_pair(tmp_path):
    save = tmp_path / "lead.json"
    session = durable_session(save)
    shipper = WalShipper(wal_dir(save))
    applier = ReplicaApplier()
    applier.apply(shipper.poll())
    return session, shipper, applier


class TestParity:
    def test_fingerprint_parity_after_every_mutation(self, tmp_path):
        session, shipper, applier = synced_pair(tmp_path)
        mutations = [
            lambda: session.registry.declare_equivalent(
                "sc1.Student.Name", "sc2.Grad_student.Name"
            ),
            lambda: session.registry.declare_equivalent(
                "sc1.Department.Name", "sc2.Department.Name"
            ),
            lambda: session.analysis.kernel.wal.rotate(),
            lambda: session.undo(),
            lambda: session.redo(),
        ]
        for mutate in mutations:
            mutate()
            applier.apply(shipper.poll(applier.cursor))
            assert applier.fingerprint() == leader_fingerprint(session)
            assert (
                applier.applied_offset()
                == session.analysis.kernel.bus.offset
            )

    def test_truncate_via_undo_branch_converges(self, tmp_path):
        session, shipper, applier = synced_pair(tmp_path)
        session.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        applier.apply(shipper.poll(applier.cursor))
        session.undo()
        # a new commit after undo truncates the branched-off suffix
        session.registry.declare_equivalent(
            "sc1.Department.Name", "sc2.Department.Name"
        )
        applier.apply(shipper.poll(applier.cursor))
        assert applier.fingerprint() == leader_fingerprint(session)

    def test_checkpoint_reset_readopts_from_scratch(self, tmp_path):
        save = tmp_path / "lead.json"
        session, shipper, applier = (
            durable_session(save),
            WalShipper(wal_dir(save)),
            ReplicaApplier(),
        )
        applier.apply(shipper.poll())
        session.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        session.save(save)
        shipment = shipper.poll(applier.cursor)
        assert shipment.restarted
        applier.apply(shipment)
        assert applier.fingerprint() == leader_fingerprint(session)

    def test_duplicate_shipment_is_idempotent(self, tmp_path):
        session, shipper, applier = synced_pair(tmp_path)
        before = applier.fingerprint()
        # re-ship the whole generation: duplicates are skipped
        applier.apply(shipper.poll())
        assert applier.fingerprint() == before


class TestGapsAndResync:
    def test_gap_raises_typed_error(self, tmp_path):
        session, shipper, applier = synced_pair(tmp_path)
        offset = applier.applied_offset()
        gap_commit = {
            "t": "commit",
            "events": [
                {
                    "offset": offset + 5,  # skips offsets in between
                    "txn": 99,
                    "scope": "registry",
                    "action": "noop",
                    "payload": {},
                }
            ],
        }
        shipment = Shipment(
            records=(gap_commit,),
            cursor=ShipCursor(applier.cursor.generation, 99),
            restarted=False,
            damaged=False,
            quarantined=(),
        )
        with pytest.raises(ReplicationGapError):
            applier.apply(shipment)
        # the gap is recorded for the recovery surface
        assert applier.report.replay_stopped is not None

    def test_resync_recovers_from_gap(self, tmp_path):
        session, shipper, applier = synced_pair(tmp_path)
        applier.report.replay_stopped = "simulated gap"
        state = session.analysis.kernel.export_state()
        applier.resync(state)
        assert applier.report.replay_stopped is None
        assert applier.fingerprint() == leader_fingerprint(session)
        # cursor=None: the next poll restarts and converges by dedup
        applier.apply(shipper.poll(applier.cursor))
        assert applier.fingerprint() == leader_fingerprint(session)

    def test_quarantine_names_accumulate_on_report(self, tmp_path):
        applier = ReplicaApplier()
        empty = ShipCursor("", 0)
        for names in (("a.corrupt",), ("a.corrupt", "b.corrupt")):
            applier.apply(
                Shipment(
                    records=(),
                    cursor=empty,
                    restarted=True,
                    damaged=False,
                    quarantined=names,
                )
            )
        assert applier.report.segments_quarantined == [
            "a.corrupt",
            "b.corrupt",
        ]

    def test_lag_accounting(self, tmp_path):
        session, shipper, applier = synced_pair(tmp_path)
        applier.observe_leader_offset(applier.applied_offset() + 3)
        assert applier.offset_behind() == 3
        applier.observe_leader_offset(applier.applied_offset())
        assert applier.offset_behind() == 0
        assert applier.caught_up_at is not None


class TestFrames:
    def test_frames_round_trip(self, tmp_path):
        session, shipper, _ = synced_pair(tmp_path)
        records = list(shipper.poll().records)
        data = encode_frames(records)
        decoded, good, damaged = decode_frames(data)
        assert decoded == records
        assert good == len(data)
        assert not damaged

    def test_torn_frame_decodes_to_intact_prefix(self, tmp_path):
        session, shipper, _ = synced_pair(tmp_path)
        records = list(shipper.poll().records)
        data = encode_frames(records)
        decoded, good, damaged = decode_frames(data[:-4])
        assert damaged
        assert decoded == records[:-1]

    def test_corrupted_frame_stops_decode(self, tmp_path):
        session, shipper, _ = synced_pair(tmp_path)
        records = list(shipper.poll().records)
        data = bytearray(encode_frames(records))
        data[-2] ^= 0xFF  # flip a payload byte in the last frame
        decoded, _good, damaged = decode_frames(bytes(data))
        assert damaged
        assert decoded == records[:-1]

    def test_session_is_read_only_view(self, tmp_path):
        session, shipper, applier = synced_pair(tmp_path)
        view = applier.session()
        assert view is not None
        assert sorted(view.schemas) == sorted(session.schemas)
        # rebuilt lazily: same object until the next apply dirties it
        assert applier.session() is view
        session.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        applier.apply(shipper.poll(applier.cursor))
        assert applier.session() is not view
