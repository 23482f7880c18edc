"""The write-ahead event log: crash-safe durability for kernel history.

The kernel's event log is the source of truth for a DDA sitting, but
until this module it only touched disk at explicit saves.  A
:class:`WriteAheadLog` makes every *committed* transaction durable the
moment it commits: the kernel hands it the group's events and the WAL
appends one checksummed record — before the mutation's result is
considered durable — so a killed process loses at most the transaction
that was in flight.

Format (see ``docs/DURABILITY.md``):

* A WAL is a **directory** of segment files ``wal-<10 digits>.seg``,
  replayed in name order.  The WAL rotates to a new segment by itself
  after every :data:`SEGMENT_COMMITS` commit records (:meth:`rotate`)
  and the whole generation resets at a checkpoint — a successful
  dictionary save (:meth:`reset`).
* Each record is **length-prefixed and CRC-checksummed**: an 8-byte
  header ``struct.pack("<II", length, crc32(payload))`` followed by the
  payload — one JSON object encoded as a single UTF-8 line (the JSONL
  body, recoverable with ``strings``/``jq`` even without the headers).
* Record kinds: ``commit`` (one per transaction — its events become
  durable atomically, with an optional ``truncate`` that drops a redo
  tail first), ``head`` (undo/redo/checkout moved the cursor),
  ``base`` (first record of a generation: the log length and head the
  backing save already holds).

Damage tolerance on open:

* a **torn tail** — a final record whose header, payload or checksum is
  incomplete — is truncated away (its transaction never finished
  committing, so dropping it *is* the consistent reading);
* a **corrupt segment** — a checksum or framing failure anywhere before
  the tail — is quarantined (renamed ``*.corrupt``) along with every
  later segment, preserving the longest trustworthy prefix rather than
  failing the session.

Both outcomes are reported in the :class:`WalOpenReport`, surfaced by
recovery in the tool's status line and the obs metrics.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import faults
from repro.errors import WalError

_HEADER = struct.Struct("<II")

#: Segment filenames: ``wal-0000000001.seg``, sortable lexicographically.
_SEGMENT_GLOB = "wal-*.seg"

#: Commit records per segment: :meth:`WriteAheadLog.commit` rotates after
#: this many, so a segment always ends between two commit records.
SEGMENT_COMMITS = 64


def _segment_name(index: int) -> str:
    return f"wal-{index:010d}.seg"


def scan_records(data: bytes) -> tuple[list[dict[str, Any]], int, bool]:
    """Decode CRC-framed records from ``data``.

    Returns ``(records, bytes of intact prefix, damaged?)``.  This is
    the one framing decoder in the system: segment scans on open use it
    via :meth:`WriteAheadLog._scan_segment`, and the replication layer
    (:mod:`repro.replication`) re-verifies shipped segments and decodes
    wire frames through it — so a torn tail, a flipped bit or malformed
    JSON mean the same thing everywhere: trust the prefix, stop there.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    while offset < len(data):
        if offset + _HEADER.size > len(data):
            return records, offset, True  # torn header
        length, checksum = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        payload = data[start : start + length]
        if len(payload) < length:
            return records, offset, True  # torn payload
        if zlib.crc32(payload) != checksum:
            return records, offset, True  # flipped bits
        try:
            record = json.loads(payload)
        except ValueError:
            return records, offset, True
        if not isinstance(record, dict):
            return records, offset, True
        records.append(record)
        offset = start + length
    return records, offset, False


def encode_record(record: dict[str, Any]) -> bytes:
    """Frame one record exactly as :meth:`WriteAheadLog.append` does."""
    payload = json.dumps(
        record, separators=(",", ":"), sort_keys=True
    ).encode("utf-8") + b"\n"
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


@dataclass
class WalOpenReport:
    """What scanning an existing WAL directory found and repaired."""

    records: list[dict[str, Any]] = field(default_factory=list)
    segments_scanned: int = 0
    bytes_truncated: int = 0
    segments_quarantined: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.bytes_truncated and not self.segments_quarantined


class WriteAheadLog:
    """Checksummed, segmented, append-only journal of kernel commits."""

    def __init__(self, directory: str | Path, *, sync: bool = True) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: fsync after every commit record (the durability guarantee);
        #: benchmarks may turn it off to measure the framing cost alone
        self.sync = sync
        self._file: "faults._TrackedFile | None" = None
        self._segment_index = 0
        #: commit records written to the active segment by this process
        self._commits = 0
        self.open_report = self._scan()
        self._open_active_segment()

    # -- scanning and repair -------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(self.directory.glob(_SEGMENT_GLOB))

    def _scan(self) -> WalOpenReport:
        """Read every record; truncate a torn tail, quarantine corruption."""
        report = WalOpenReport()
        segments = self._segments()
        report.segments_scanned = len(segments)
        for position, segment in enumerate(segments):
            final_segment = position == len(segments) - 1
            records, good_bytes, damage = self._scan_segment(segment)
            if damage and not final_segment:
                # mid-generation damage: nothing after it can be trusted
                # to align with the log — quarantine this segment and
                # every later one, keep the prefix scanned so far
                for casualty in segments[position:]:
                    report.segments_quarantined.append(casualty.name)
                    casualty.rename(
                        casualty.with_suffix(".corrupt")
                    )
                break
            report.records.extend(records)
            if damage and final_segment:
                size = segment.stat().st_size
                report.bytes_truncated += size - good_bytes
                with open(segment, "rb+") as handle:
                    handle.truncate(good_bytes)
        return report

    @staticmethod
    def _scan_segment(
        segment: Path,
    ) -> tuple[list[dict[str, Any]], int, bool]:
        """(records, bytes of intact prefix, damaged?) for one segment."""
        return scan_records(segment.read_bytes())

    def _open_active_segment(self) -> None:
        segments = self._segments()
        if segments:
            last = segments[-1]
            self._segment_index = int(last.stem.split("-")[1])
            self._file = faults.open_tracked(last, "ab")
        else:
            self._segment_index = 1
            self._file = faults.open_tracked(
                self.directory / _segment_name(1), "ab"
            )
            faults.fsync_dir(self.directory)

    # -- appending -----------------------------------------------------------

    def append(self, record: dict[str, Any], *, sync: bool | None = None) -> None:
        """Frame, checksum and append one record; fsync unless told not to."""
        if self._file is None:
            raise WalError("write-ahead log is closed")
        self._file.write(encode_record(record), point="wal.append.write")
        faults.crashpoint("wal.append.after_write")
        if sync if sync is not None else self.sync:
            self._file.fsync()
        faults.crashpoint("wal.append.after_fsync")

    def commit(
        self,
        events: list[dict[str, Any]],
        *,
        truncate: int | None = None,
    ) -> None:
        """Make one transaction's events durable, atomically.

        The whole group travels in a single record — a single checksum
        unit — so recovery either sees the full transaction or none of
        it.  ``truncate`` records that the commit first dropped the redo
        tail past that offset (linear-history branching).  Every
        :data:`SEGMENT_COMMITS`-th commit then rotates the segment.
        """
        record: dict[str, Any] = {"t": "commit", "events": events}
        if truncate is not None:
            record["truncate"] = truncate
        self.append(record)
        self._commits += 1
        if self._commits >= SEGMENT_COMMITS:
            self.rotate()

    def record_head(self, offset: int) -> None:
        """Record an undo/redo/checkout cursor move (no new events)."""
        self.append({"t": "head", "offset": offset})

    def record_base(
        self,
        offset: int,
        head: int,
        *,
        state: dict[str, Any] | None = None,
    ) -> None:
        """Open a generation: the backing save already holds this much.

        ``state`` (an ``export_state``-shaped dict) makes the generation
        **self-anchoring**: recovery can replay it without the backing
        save — the insurance that lets a corrupt checkpoint fall back to
        the WAL alone.
        """
        record: dict[str, Any] = {"t": "base", "offset": offset, "head": head}
        if state is not None:
            record["state"] = state
        self.append(record)

    # -- lifecycle -----------------------------------------------------------

    def rotate(self) -> None:
        """Close the active segment and start the next."""
        if self._file is None:
            raise WalError("write-ahead log is closed")
        faults.crashpoint("wal.rotate.before_create")
        self._file.fsync()
        self._file.close()
        self._commits = 0
        self._segment_index += 1
        self._file = faults.open_tracked(
            self.directory / _segment_name(self._segment_index), "ab"
        )
        faults.fsync_dir(self.directory)
        faults.crashpoint("wal.rotate.after_create")

    def reset(
        self,
        base_offset: int,
        head: int,
        *,
        state: dict[str, Any] | None = None,
    ) -> None:
        """Checkpoint: drop every segment, start a fresh generation.

        Called right after a successful dictionary save — the save now
        holds everything the old generation recorded.  The new
        generation opens with a ``base`` record naming the save's log
        length and head, which recovery uses to anchor replay; pass the
        saved kernel ``state`` to keep the generation self-anchoring
        (recoverable even if the save itself is later damaged).
        """
        if self._file is not None:
            self._file.close()
        for segment in self._segments():
            segment.unlink()
        for stale in self.directory.glob("wal-*.corrupt"):
            stale.unlink()
        self._segment_index = 1
        self._commits = 0
        self._file = faults.open_tracked(
            self.directory / _segment_name(1), "ab"
        )
        faults.fsync_dir(self.directory)
        self.record_base(base_offset, head, state=state)

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = [
    "SEGMENT_COMMITS",
    "WalOpenReport",
    "WriteAheadLog",
    "encode_record",
    "scan_records",
]
