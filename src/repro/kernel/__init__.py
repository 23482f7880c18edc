"""`repro.kernel` — the event-sourced core every layer mutates through.

One :class:`EventBus` carries every mutation in the system as an
:class:`Event`; the :class:`Kernel` adds transactions, checkout,
undo/redo and persistence on top.  Caches and matrices subscribe to the
bus, the audit log taps it, the data dictionary serialises it — the
event log is the source of truth (see ``docs/ARCHITECTURE.md``).
"""

from repro.kernel.apply import (
    apply_event,
    canonical_schema_json,
    event_label,
    schema_fingerprint,
)
from repro.kernel.bus import EventBus, EventEmitter, Subscription
from repro.kernel.events import NO_CHANGE, Command, Event
from repro.kernel.kernel import Kernel
from repro.kernel.recovery import (
    RecoveryManager,
    RecoveryReport,
    merge_wal_records,
)
from repro.kernel.snapshots import Snapshot, apply_state
from repro.kernel.wal import (
    WalOpenReport,
    WriteAheadLog,
    encode_record,
    scan_records,
)

__all__ = [
    "NO_CHANGE",
    "Command",
    "Event",
    "EventBus",
    "EventEmitter",
    "Kernel",
    "RecoveryManager",
    "RecoveryReport",
    "Snapshot",
    "Subscription",
    "WalOpenReport",
    "WriteAheadLog",
    "apply_event",
    "apply_state",
    "canonical_schema_json",
    "encode_record",
    "event_label",
    "merge_wal_records",
    "scan_records",
    "schema_fingerprint",
]
