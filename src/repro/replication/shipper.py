"""Leader-side WAL tailing: turn the durability log into a stream.

A :class:`WalShipper` reads a live WAL directory **read-only** — it
never repairs, truncates or quarantines; that is the owning process's
job on open — and answers "what happened since this cursor?" with a
:class:`Shipment` of records.

Positions are logical, not physical: a :class:`ShipCursor` is
``(generation, records shipped so far)``.  Segment boundaries are the
shipper's problem — records are counted across the whole sorted
``wal-*.seg`` chain, so a rotation (the WAL starts a new segment every
``SEGMENT_COMMITS`` commit records) hands off from ``wal-N.seg`` to
``wal-N+1.seg`` without skipping or duplicating the straddling record.
The *generation* identifies one WAL lifetime: a checkpoint ``reset``
starts a new first segment with a new ``base`` record, which changes
the generation id and tells the follower to adopt the stream from
scratch rather than append to stale state.

Damage discipline on read:

* a torn tail on the **final** segment is an append racing the read —
  the intact prefix ships, the remainder ships on a later poll;
* damage **before** the final segment is real corruption the owner has
  not noticed yet — the shipment stops at the longest intact prefix and
  is flagged ``damaged`` so the follower can alert rather than replay
  past a hole;
* ``*.corrupt`` segments already quarantined by the owner are reported
  by name, so operators on the follower side can see damage that
  happened on the leader (surfaced through the recovery endpoint).
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import faults
from repro.kernel.wal import scan_records

_SEGMENT_GLOB = "wal-*.seg"
_CORRUPT_GLOB = "wal-*.corrupt"


class _SegmentScanCache:
    """Memoized ``scan_records`` per segment file, keyed by stat.

    Without this, every poll of every follower re-reads and CRC-decodes
    every byte of every segment — O(total WAL bytes × followers) per
    round.  WAL segments are append-only while live and immutable once
    rotated, so ``(size, mtime_ns)`` identifies a segment's content: an
    append changes both, a rotation or checkpoint reset replaces the
    file.  The stat is taken *before* the read — a write racing the
    read can at worst cache newer content under the older key, which
    the next append invalidates; it can never pin stale content.

    Cached record dicts are shared by reference; every consumer
    (``encode_frames``, ``merge_wal_records``) treats records as
    immutable, copying before keeping.
    """

    def __init__(self, max_entries: int = 256) -> None:
        self._max_entries = max_entries
        self._lock = threading.Lock()
        #: path -> ((size, mtime_ns), (records, good, damage))
        self._entries: dict[
            Path, tuple[tuple[int, int], tuple[Any, ...]]
        ] = {}

    def scan(self, segment: Path) -> tuple[Any, ...]:
        stat = segment.stat()
        key = (stat.st_size, stat.st_mtime_ns)
        with self._lock:
            entry = self._entries.get(segment)
            if entry is not None and entry[0] == key:
                return entry[1]
        result = scan_records(segment.read_bytes())
        with self._lock:
            # FIFO bound: rotated-away and quarantined paths age out
            while (
                len(self._entries) >= self._max_entries
                and segment not in self._entries
            ):
                self._entries.pop(next(iter(self._entries)))
            self._entries[segment] = (key, result)
        return result


_SCAN_CACHE = _SegmentScanCache()


@dataclass(frozen=True)
class ShipCursor:
    """A follower's logical position in a leader's WAL stream."""

    #: identifies one WAL generation (changes at every checkpoint reset)
    generation: str
    #: records already shipped within this generation
    records: int

    def to_wire(self) -> dict[str, Any]:
        return {"generation": self.generation, "records": self.records}

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "ShipCursor":
        return cls(
            generation=str(wire.get("generation", "")),
            records=int(wire.get("records", 0)),
        )


@dataclass(frozen=True)
class Shipment:
    """One poll's worth of WAL records, plus stream bookkeeping."""

    #: the records after the cursor (every record when ``restarted``)
    records: tuple[dict[str, Any], ...]
    #: position after applying this shipment; feed to the next poll
    cursor: ShipCursor
    #: the generation changed (or the cursor was unusable): the follower
    #: must adopt this stream from scratch, not append to old state
    restarted: bool
    #: mid-generation corruption stopped the scan before the end
    damaged: bool
    #: ``*.corrupt`` segment names quarantined on the leader
    quarantined: tuple[str, ...]


class WalShipper:
    """Tail a WAL directory and hand out incremental shipments."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def poll(self, cursor: ShipCursor | None = None) -> Shipment:
        """Everything after ``cursor`` (or everything, when it is stale)."""
        faults.crashpoint("repl.ship.read")
        records: list[dict[str, Any]] = []
        damaged = False
        first_segment: Path | None = None
        segments = sorted(self.directory.glob(_SEGMENT_GLOB))
        for position, segment in enumerate(segments):
            if first_segment is None:
                first_segment = segment
            scanned, _good, damage = _SCAN_CACHE.scan(segment)
            records.extend(scanned)
            if damage:
                # final segment: an append racing this read — the rest
                # ships next poll.  Earlier: corruption; never ship past.
                damaged = position != len(segments) - 1
                break
        quarantined = tuple(
            sorted(p.name for p in self.directory.glob(_CORRUPT_GLOB))
        )
        generation = self._generation(first_segment, records)
        restarted = (
            cursor is None
            or cursor.generation != generation
            or cursor.records > len(records)
        )
        start = 0 if restarted else cursor.records
        fresh = tuple(records[start:])
        return Shipment(
            records=fresh,
            cursor=ShipCursor(generation, start + len(fresh)),
            restarted=restarted,
            damaged=damaged,
            quarantined=quarantined,
        )

    @staticmethod
    def _generation(
        first_segment: Path | None, records: list[dict[str, Any]]
    ) -> str:
        """A stable id for one WAL lifetime.

        Hash of the first segment's *name* and first record: a
        checkpoint ``reset`` deletes every segment and writes a fresh
        ``wal-0000000001.seg`` whose base record names the new offset
        (or embeds state), so either component — and hence the id —
        changes.  An empty directory is the empty generation.
        """
        if first_segment is None or not records:
            return ""
        seed = first_segment.name + "|" + json.dumps(
            records[0], sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]


__all__ = ["ShipCursor", "Shipment", "WalShipper"]
