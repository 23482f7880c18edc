"""Crash recovery: last good save + write-ahead-log tail replay.

A :class:`RecoveryManager` turns whatever a crash left on disk — a
checksummed dictionary save, a WAL directory, either, both or neither —
back into a consistent session state:

1. **Load the last good save.**  A missing save is fine (the sitting may
   have crashed before its first checkpoint); a corrupt save is fine
   *if* the WAL generation is self-anchoring — its ``base`` record
   starts from offset 0 (optionally carrying the baseline snapshot) or
   embeds the checkpoint's exported kernel ``state``, as every
   ``ToolSession.save`` reset does — otherwise the
   :class:`~repro.errors.CorruptDictionaryError` propagates.
2. **Scan the WAL.**  Opening the :class:`~repro.kernel.wal.WriteAheadLog`
   truncates a torn tail and quarantines corrupt segments; the scan
   report feeds the :class:`RecoveryReport`.
3. **Replay the records onto the save's kernel state.**  ``commit``
   records append events at the next offset — duplicates of events the
   save already holds are skipped, a ``truncate`` drops the redo tail it
   recorded — and ``head`` records move the cursor.  Replay is pure data
   manipulation on the serialised log; the expensive part (rebuilding
   the live session) happens once, through the ordinary
   ``Kernel.restore`` + ``checkout`` path.

The duplicate-skip + literal-truncate discipline makes replay converge
on the save state even in the crash window *between* a successful save
and the WAL reset that should have followed it: the stale generation
re-derives exactly the log the save already holds.

The resulting :class:`RecoveryReport` is surfaced in the tool's status
line after a Load and can be folded into a
:class:`~repro.obs.metrics.MetricsRegistry` via
:meth:`RecoveryReport.record_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import CorruptDictionaryError, DictionaryNotFoundError
from repro.kernel.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.dictionary.store import DataDictionary
    from repro.obs.metrics import MetricsRegistry


def wal_directory_for(save_path: str | Path) -> Path:
    """The WAL directory conventionally paired with a save file."""
    save_path = Path(save_path)
    return save_path.with_name(save_path.name + ".wal")


@dataclass
class RecoveryReport:
    """How a session was rebuilt after an open (crash or clean exit)."""

    #: where the state came from: ``fresh`` (nothing on disk), ``save``
    #: (checkpoint only, WAL added nothing), ``save+wal`` (checkpoint
    #: plus replayed tail) or ``wal`` (no usable save, WAL alone)
    source: str = "fresh"
    #: WAL events applied on top of the save's log
    events_replayed: int = 0
    #: the head offset the recovered session stands at
    head: int = 0
    #: torn bytes dropped from the final WAL segment on open
    bytes_truncated: int = 0
    #: WAL segments renamed ``*.corrupt`` on open
    segments_quarantined: list[str] = field(default_factory=list)
    #: why the save was unusable, when recovery fell back to the WAL
    save_error: str | None = None
    #: why replay stopped early (a generation gap), if it did
    replay_stopped: str | None = None

    @property
    def used_wal(self) -> bool:
        """True when WAL records contributed to the recovered state."""
        return self.source in ("wal", "save+wal")

    @property
    def clean(self) -> bool:
        """True when no repair of any kind was needed."""
        return (
            not self.used_wal
            and not self.bytes_truncated
            and not self.segments_quarantined
            and self.save_error is None
        )

    def summary(self) -> str:
        """One status-line sentence, e.g. for the tool's Load command."""
        parts = [f"recovered {self.events_replayed} event(s) from the WAL"]
        if self.bytes_truncated:
            parts.append(f"dropped {self.bytes_truncated} torn byte(s)")
        if self.segments_quarantined:
            names = ", ".join(self.segments_quarantined)
            parts.append(
                f"quarantined {len(self.segments_quarantined)} segment(s)"
                f" ({names})"
            )
        if self.save_error is not None:
            parts.append("save unusable")
        return ", ".join(parts)

    def record_metrics(self, registry: "MetricsRegistry") -> None:
        """Fold the report into an observability metrics registry."""
        registry.counter("recovery.opens").inc()
        registry.counter("recovery.events_replayed").inc(
            self.events_replayed
        )
        registry.counter("recovery.bytes_truncated").inc(
            self.bytes_truncated
        )
        registry.counter("recovery.segments_quarantined").inc(
            len(self.segments_quarantined)
        )
        if self.used_wal:
            registry.counter("recovery.wal_recoveries").inc()
        if self.save_error is not None:
            registry.counter("recovery.save_fallbacks").inc()
        registry.gauge("recovery.head").set(self.head)

    def to_dict(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "events_replayed": self.events_replayed,
            "head": self.head,
            "bytes_truncated": self.bytes_truncated,
            "segments_quarantined": list(self.segments_quarantined),
            "save_error": self.save_error,
            "replay_stopped": self.replay_stopped,
        }


class RecoveryManager:
    """Rebuild the serialised kernel state a crash interrupted.

    After :meth:`recover`:

    * :attr:`dictionary` — the loaded :class:`DataDictionary`, or
      ``None`` when the save was missing/corrupt;
    * :attr:`kernel_state` — the merged ``export_state``-shaped dict to
      hand to ``Kernel.restore``, or ``None`` when nothing on disk
      described a kernel (fresh session, or a legacy save whose state
      lives in the dictionary body);
    * :attr:`wal` — the opened (repaired) :class:`WriteAheadLog`, ready
      to attach to the rebuilt kernel;
    * :attr:`report` — the :class:`RecoveryReport` (also returned).
    """

    def __init__(
        self, save_path: str | Path, wal_dir: str | Path | None = None
    ) -> None:
        self.save_path = Path(save_path)
        self.wal_dir = (
            Path(wal_dir) if wal_dir is not None
            else wal_directory_for(save_path)
        )
        self.dictionary: "DataDictionary | None" = None
        self.kernel_state: dict[str, Any] | None = None
        self.wal: WriteAheadLog | None = None
        self.report = RecoveryReport()

    def recover(self) -> RecoveryReport:
        from repro.dictionary.store import DataDictionary

        report = self.report
        wal_exists = any(self.wal_dir.glob("wal-*.seg"))
        save_error: Exception | None = None
        try:
            self.dictionary = DataDictionary.load(self.save_path)
        except DictionaryNotFoundError:
            pass
        except CorruptDictionaryError as exc:
            save_error = exc
            report.save_error = str(exc)

        if not wal_exists:
            # nothing to replay: the save (or its absence) is the answer
            if save_error is not None:
                raise save_error
            self.wal = WriteAheadLog(self.wal_dir)
            if self.dictionary is not None:
                report.source = "save"
                state = self.dictionary.kernel_state()
                self.kernel_state = state
                if state is not None:
                    report.head = int(state.get("head", 0))
            return report

        self.wal = WriteAheadLog(self.wal_dir)
        scan = self.wal.open_report
        report.bytes_truncated = scan.bytes_truncated
        report.segments_quarantined = list(scan.segments_quarantined)

        base_state = (
            self.dictionary.kernel_state()
            if self.dictionary is not None
            else None
        )
        if self.dictionary is None and not self._self_anchoring(scan.records):
            # the generation assumed a save we no longer have
            if save_error is not None:
                raise save_error
            raise DictionaryNotFoundError(self.save_path)

        self.kernel_state = self._replay(base_state, scan.records, report)
        if report.events_replayed or self.dictionary is None:
            report.source = "wal" if self.dictionary is None else "save+wal"
        elif self.dictionary is not None:
            report.source = "save"
        return report

    @staticmethod
    def _self_anchoring(records: list[dict[str, Any]]) -> bool:
        """Can this generation be replayed without its backing save?

        When its ``base`` record starts at offset 0 (a fresh session, or
        a legacy restore whose baseline snapshot rides in the record) or
        embeds the checkpoint's full kernel ``state`` (every checkpoint
        reset does).  A stateless base at a real offset refers to events
        the WAL never saw.
        """
        for record in records:
            if record.get("t") == "base":
                return (
                    int(record.get("offset", 0)) == 0
                    or record.get("state") is not None
                )
        # no base record at all: the generation began at an empty log
        return True

    def _replay(
        self,
        base_state: dict[str, Any] | None,
        records: list[dict[str, Any]],
        report: RecoveryReport,
    ) -> dict[str, Any]:
        return merge_wal_records(base_state, records, report)


def merge_wal_records(
    base_state: dict[str, Any] | None,
    records: list[dict[str, Any]],
    report: RecoveryReport,
) -> dict[str, Any]:
    """Merge WAL ``records`` onto ``base_state``; the convergent core.

    Pure data manipulation on ``export_state``-shaped dicts — no live
    kernel involved.  Duplicate events (offsets the base already holds)
    are skipped, ``truncate`` drops the recorded redo tail, ``snapshots``
    passes through unchanged (the kernel reads only the baseline's entry,
    which no truncate can reach), and a record that does not *extend*
    the log stops replay with ``report.replay_stopped`` set rather than
    guessing.  Crash recovery
    (:class:`RecoveryManager`) and continuous replica apply
    (:class:`repro.replication.ReplicaApplier`) share this function, so
    a follower replaying shipped records converges on exactly the state
    a local recovery would have produced.
    """
    events: list[dict[str, Any]] = (
        list(base_state.get("events", ()))
        if base_state is not None
        else []
    )
    snapshots: list[dict[str, Any]] = (
        list(base_state.get("snapshots", ()))
        if base_state is not None
        else []
    )
    baseline = (
        int(base_state.get("baseline", 0))
        if base_state is not None
        else 0
    )
    head = (
        int(base_state.get("head", len(events)))
        if base_state is not None
        else 0
    )
    for record in records:
        kind = record.get("t")
        if kind == "base":
            if base_state is None:
                embedded = record.get("state")
                if embedded is not None:
                    # a self-anchoring checkpoint: adopt its state
                    events = [
                        dict(event)
                        for event in embedded.get("events", ())
                    ]
                    snapshots = [
                        dict(snapshot)
                        for snapshot in embedded.get("snapshots", ())
                    ]
                    baseline = int(embedded.get("baseline", 0))
                    head = int(embedded.get("head", len(events)))
                    continue
                baseline = int(record.get("baseline", 0))
                head = int(record.get("head", 0))
                snapshot = record.get("snapshot")
                if snapshot is not None:
                    snapshots.append(dict(snapshot))
        elif kind == "commit":
            truncate = record.get("truncate")
            if truncate is not None:
                truncate = int(truncate)
                del events[truncate:]
                head = min(head, truncate)
            stopped = False
            for event in record.get("events", ()):
                offset = int(event.get("offset", 0))
                if offset <= len(events):
                    continue  # the save already holds this event
                if offset != len(events) + 1:
                    report.replay_stopped = (
                        f"event offset {offset} does not extend a log "
                        f"of {len(events)} (stale save?)"
                    )
                    stopped = True
                    break
                events.append(dict(event))
                report.events_replayed += 1
                head = offset
            if stopped:
                break
        elif kind == "head":
            head = int(record.get("offset", head))
    head = max(baseline, min(head, len(events)))
    report.head = head
    return {
        "head": head,
        "baseline": baseline,
        "events": events,
        "snapshots": snapshots,
    }


__all__ = [
    "RecoveryManager",
    "RecoveryReport",
    "merge_wal_records",
    "wal_directory_for",
]
