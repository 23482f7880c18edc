"""The write-ahead log's framing, repair and lifecycle guarantees."""

import json
import struct
import zlib

import pytest

from repro.errors import WalError
from repro.kernel.wal import WriteAheadLog, scan_records


def records_of(wal_dir):
    """Reopen the directory and return what a recovery would read."""
    wal = WriteAheadLog(wal_dir)
    try:
        return wal.open_report
    finally:
        wal.close()


def records_of_segment(segment):
    records, _good, damaged = scan_records(segment.read_bytes())
    assert not damaged
    return records


class TestAppendAndScan:
    def test_round_trips_records_in_order(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.record_base(0, 0)
            wal.commit([{"offset": 1, "scope": "s", "action": "a"}])
            wal.record_head(0)
        report = records_of(tmp_path / "wal")
        assert [r["t"] for r in report.records] == ["base", "commit", "head"]
        assert report.clean
        assert report.segments_scanned == 1

    def test_commit_carries_events_and_truncate(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.commit([{"offset": 4}], truncate=3)
        (record,) = records_of(tmp_path / "wal").records
        assert record == {
            "t": "commit", "events": [{"offset": 4}], "truncate": 3
        }

    def test_append_after_close_is_misuse(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal")
        wal.close()
        with pytest.raises(WalError):
            wal.record_head(1)


class TestTornTail:
    def seed_segments(self, wal_dir, count=3):
        with WriteAheadLog(wal_dir) as wal:
            for offset in range(1, count + 1):
                wal.commit([{"offset": offset}])
        return sorted(wal_dir.glob("wal-*.seg"))[-1]

    def test_partial_final_record_is_truncated_away(self, tmp_path):
        segment = self.seed_segments(tmp_path / "wal")
        data = segment.read_bytes()
        segment.write_bytes(data[:-5])  # tear the last record
        report = records_of(tmp_path / "wal")
        assert len(report.records) == 2
        assert report.bytes_truncated > 0
        assert not report.segments_quarantined
        # the repair is physical: a further reopen is clean
        assert records_of(tmp_path / "wal").clean

    def test_torn_header_alone_is_truncated(self, tmp_path):
        segment = self.seed_segments(tmp_path / "wal", count=1)
        with open(segment, "ab") as handle:
            handle.write(struct.pack("<I", 999))  # half a header
        report = records_of(tmp_path / "wal")
        assert len(report.records) == 1
        assert report.bytes_truncated == 4

    def test_appending_after_repair_extends_the_log(self, tmp_path):
        segment = self.seed_segments(tmp_path / "wal")
        segment.write_bytes(segment.read_bytes()[:-5])
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.commit([{"offset": 3}])
        report = records_of(tmp_path / "wal")
        assert report.clean
        assert [r["events"][0]["offset"] for r in report.records] == [1, 2, 3]


class TestCorruptSegments:
    def build_generation(self, wal_dir):
        with WriteAheadLog(wal_dir) as wal:
            wal.commit([{"offset": 1}])
            wal.rotate()
            wal.commit([{"offset": 2}])
        return sorted(wal_dir.glob("wal-*.seg"))

    def test_mid_generation_flip_quarantines_the_rest(self, tmp_path):
        first, second = self.build_generation(tmp_path / "wal")
        data = bytearray(first.read_bytes())
        data[12] ^= 0xFF  # flip a payload bit: checksum now fails
        first.write_bytes(bytes(data))
        report = records_of(tmp_path / "wal")
        assert report.records == []
        assert report.segments_quarantined == [first.name, second.name]
        leftovers = sorted(p.name for p in (tmp_path / "wal").iterdir())
        assert first.with_suffix(".corrupt").name in leftovers
        assert second.with_suffix(".corrupt").name in leftovers

    def test_final_segment_flip_is_a_tail_truncate(self, tmp_path):
        first, second = self.build_generation(tmp_path / "wal")
        data = bytearray(second.read_bytes())
        data[12] ^= 0xFF
        second.write_bytes(bytes(data))
        report = records_of(tmp_path / "wal")
        assert [r["events"][0]["offset"] for r in report.records] == [1]
        assert report.bytes_truncated > 0
        assert not report.segments_quarantined

    def test_garbage_json_with_valid_checksum_is_damage(self, tmp_path):
        wal_dir = tmp_path / "wal"
        wal_dir.mkdir()
        payload = b"not json\n"
        header = struct.pack("<II", len(payload), zlib.crc32(payload))
        (wal_dir / "wal-0000000001.seg").write_bytes(header + payload)
        report = records_of(wal_dir)
        assert report.records == []
        assert report.bytes_truncated == len(header) + len(payload)


class TestLifecycle:
    def test_rotate_starts_a_new_segment(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.commit([{"offset": 1}])
            wal.rotate()
            wal.commit([{"offset": 2}])
        segments = sorted(p.name for p in (tmp_path / "wal").glob("*.seg"))
        assert segments == ["wal-0000000001.seg", "wal-0000000002.seg"]
        report = records_of(tmp_path / "wal")
        assert [r["events"][0]["offset"] for r in report.records] == [1, 2]

    def test_rotates_itself_every_segment_commits(self, tmp_path, monkeypatch):
        from repro.kernel import wal as wal_module

        monkeypatch.setattr(wal_module, "SEGMENT_COMMITS", 3)
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_dir) as wal:
            wal.record_base(0, 0)
            for offset in range(1, 8):
                wal.commit([{"offset": offset}])
                wal.record_head(offset)  # only commit records count
        per_segment = [
            [r["t"] for r in records_of_segment(segment)]
            for segment in sorted(wal_dir.glob("wal-*.seg"))
        ]
        assert [kinds.count("commit") for kinds in per_segment] == [3, 3, 1]
        # each rotation follows a commit record, never splits a pair
        assert per_segment[1][0] == "head"
        report = records_of(wal_dir)
        offsets = [r["events"][0]["offset"] for r in report.records
                   if r["t"] == "commit"]
        assert offsets == list(range(1, 8))

    def test_rotate_and_reset_restart_the_count(self, tmp_path, monkeypatch):
        from repro.kernel import wal as wal_module

        monkeypatch.setattr(wal_module, "SEGMENT_COMMITS", 2)
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_dir) as wal:
            wal.commit([{"offset": 1}])
            wal.rotate()  # segment 2, count restarts
            wal.commit([{"offset": 2}])
            assert len(list(wal_dir.glob("wal-*.seg"))) == 2
            wal.reset(2, 2)
            wal.commit([{"offset": 3}])
            assert len(list(wal_dir.glob("wal-*.seg"))) == 1
            wal.commit([{"offset": 4}])  # the second since the reset
            assert len(list(wal_dir.glob("wal-*.seg"))) == 2

    def test_reset_leaves_one_fresh_generation(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.commit([{"offset": 1}])
            wal.rotate()
            wal.commit([{"offset": 2}])
            wal.reset(2, 2)
        report = records_of(tmp_path / "wal")
        assert report.records == [{"t": "base", "offset": 2, "head": 2}]
        assert report.segments_scanned == 1

    def test_reset_clears_stale_quarantine_files(self, tmp_path):
        wal_dir = tmp_path / "wal"
        with WriteAheadLog(wal_dir) as wal:
            wal.commit([{"offset": 1}])
        (wal_dir / "wal-0000000000.corrupt").write_bytes(b"old damage")
        with WriteAheadLog(wal_dir) as wal:
            wal.reset(0, 0)
        assert sorted(p.name for p in wal_dir.iterdir()) == [
            "wal-0000000001.seg"
        ]

    def test_records_survive_process_restart_byte_for_byte(self, tmp_path):
        events = [{"offset": 1, "payload": {"name": "sc1", "n": 3}}]
        with WriteAheadLog(tmp_path / "wal") as wal:
            wal.commit(events)
        # the payload is one JSON line: recoverable with standard tools
        raw = (tmp_path / "wal" / "wal-0000000001.seg").read_bytes()
        line = raw[8:].decode("utf-8")
        assert json.loads(line)["events"] == events
