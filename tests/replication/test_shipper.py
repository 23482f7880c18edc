"""WAL tailing: cursors, rotation boundaries, resets, damage discipline."""

from __future__ import annotations

import json

import pytest

from repro.kernel.wal import encode_record
from repro.replication import (
    ReplicaApplier,
    ShipCursor,
    WalShipper,
    payload_fingerprint,
)

from tests.replication.conftest import durable_session


def wal_dir(path):
    return f"{path}.wal"


def leader_fingerprint(session):
    return payload_fingerprint(session.analysis.state_payload())


class TestCursorBasics:
    def test_initial_poll_ships_everything_restarted(self, tmp_path):
        save = tmp_path / "lead.json"
        session = durable_session(save)
        shipment = WalShipper(wal_dir(save)).poll()
        assert shipment.restarted
        assert shipment.records  # base + commits
        assert shipment.cursor.records == len(shipment.records)
        assert not shipment.damaged
        assert shipment.quarantined == ()

    def test_incremental_poll_ships_only_fresh_records(self, tmp_path):
        save = tmp_path / "lead.json"
        session = durable_session(save)
        shipper = WalShipper(wal_dir(save))
        first = shipper.poll()
        session.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        second = shipper.poll(first.cursor)
        assert not second.restarted
        assert len(second.records) == 1
        assert second.cursor.records == first.cursor.records + 1

    def test_caught_up_poll_is_empty(self, tmp_path):
        save = tmp_path / "lead.json"
        durable_session(save)
        shipper = WalShipper(wal_dir(save))
        cursor = shipper.poll().cursor
        again = shipper.poll(cursor)
        assert not again.restarted
        assert again.records == ()
        assert again.cursor == cursor

    def test_overshot_cursor_restarts_stream(self, tmp_path):
        save = tmp_path / "lead.json"
        durable_session(save)
        shipper = WalShipper(wal_dir(save))
        good = shipper.poll().cursor
        bogus = ShipCursor(good.generation, good.records + 50)
        shipment = shipper.poll(bogus)
        assert shipment.restarted
        assert len(shipment.records) == good.records


class TestRotationBoundary:
    """No skip/duplicate across a segment rotation."""

    def test_rotation_hands_off_without_skip_or_duplicate(self, tmp_path):
        save = tmp_path / "lead.json"
        session = durable_session(save)
        shipper = WalShipper(wal_dir(save))
        applier = ReplicaApplier()
        applier.apply(shipper.poll())
        kernel = session.analysis.kernel
        before = kernel.bus.offset
        # rotate onto a fresh segment; the next commits land in the new
        # segment while the cursor position was taken in the old one
        kernel.wal.rotate()
        session.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        shipment = shipper.poll(applier.cursor)
        assert not shipment.restarted
        applier.apply(shipment)
        assert applier.applied_offset() == kernel.bus.offset
        assert kernel.bus.offset > before
        assert applier.fingerprint() == leader_fingerprint(session)
        # the directory really did rotate
        segments = sorted((tmp_path / "lead.json.wal").glob("wal-*.seg"))
        assert len(segments) >= 2

    def test_record_straddling_rotation_ships_exactly_once(self, tmp_path):
        save = tmp_path / "lead.json"
        session = durable_session(save)
        shipper = WalShipper(wal_dir(save))
        # cursor taken mid-generation, *before* the rotation
        cursor = shipper.poll().cursor
        session.analysis.kernel.wal.rotate()
        session.registry.declare_equivalent(
            "sc1.Department.Name", "sc2.Department.Name"
        )
        shipment = shipper.poll(cursor)
        assert not shipment.restarted
        # exactly the records written after the cursor: the commit —
        # none duplicated from segment 1
        total = shipper.poll().cursor.records
        assert cursor.records + len(shipment.records) == total

    def test_checkpoint_reset_changes_generation(self, tmp_path):
        save = tmp_path / "lead.json"
        session = durable_session(save)
        shipper = WalShipper(wal_dir(save))
        cursor = shipper.poll().cursor
        session.save(save)  # reset: new generation, new base record
        shipment = shipper.poll(cursor)
        assert shipment.restarted
        assert shipment.cursor.generation != cursor.generation


class TestDamageDiscipline:
    def test_torn_tail_on_final_segment_is_not_damage(self, tmp_path):
        save = tmp_path / "lead.json"
        durable_session(save)
        directory = tmp_path / "lead.json.wal"
        segment = sorted(directory.glob("wal-*.seg"))[-1]
        intact = segment.read_bytes()
        torn = encode_record({"t": "head", "offset": 1})[:-3]
        segment.write_bytes(intact + torn)
        shipment = WalShipper(directory).poll()
        assert not shipment.damaged  # append racing the read
        # the intact prefix shipped; the torn tail waits for a re-poll
        assert shipment.cursor.records == len(shipment.records)

    def test_mid_chain_damage_flags_and_stops(self, tmp_path):
        save = tmp_path / "lead.json"
        session = durable_session(save)
        session.analysis.kernel.wal.rotate()  # two segments now
        session.registry.declare_equivalent(
            "sc1.Student.Name", "sc2.Grad_student.Name"
        )
        directory = tmp_path / "lead.json.wal"
        segments = sorted(directory.glob("wal-*.seg"))
        assert len(segments) >= 2
        first = segments[0]
        data = bytearray(first.read_bytes())
        data[len(data) // 2] ^= 0xFF  # corrupt the first segment
        first.write_bytes(bytes(data))
        shipment = WalShipper(directory).poll()
        assert shipment.damaged  # corruption before the final segment
        # never ships past the hole
        assert shipment.cursor.records == len(shipment.records)

    def test_quarantined_segments_reported_by_name(self, tmp_path):
        save = tmp_path / "lead.json"
        durable_session(save)
        directory = tmp_path / "lead.json.wal"
        (directory / "wal-0000000007.seg.corrupt").write_bytes(b"xx")
        shipment = WalShipper(directory).poll()
        assert shipment.quarantined == ("wal-0000000007.seg.corrupt",)

    def test_empty_directory_is_empty_generation(self, tmp_path):
        directory = tmp_path / "nothing.wal"
        directory.mkdir()
        shipment = WalShipper(directory).poll()
        assert shipment.records == ()
        assert shipment.cursor.generation == ""

    def test_shipper_never_mutates_the_wal(self, tmp_path):
        save = tmp_path / "lead.json"
        durable_session(save)
        directory = tmp_path / "lead.json.wal"
        before = {
            p.name: p.read_bytes() for p in directory.glob("wal-*")
        }
        WalShipper(directory).poll()
        after = {p.name: p.read_bytes() for p in directory.glob("wal-*")}
        assert before == after


class TestCursorWire:
    def test_cursor_round_trips_through_wire_shape(self):
        cursor = ShipCursor("abc123", 42)
        assert ShipCursor.from_wire(cursor.to_wire()) == cursor
        assert json.dumps(cursor.to_wire())  # JSON-safe
