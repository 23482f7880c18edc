"""`repro.kernel` — the event-sourced core every layer mutates through.

One :class:`EventBus` carries every mutation in the system as an
:class:`Event`; the :class:`Kernel` adds transactions, checkout,
undo/redo and persistence on top.  Caches and matrices subscribe to the
bus, the audit log taps it, the data dictionary serialises it — the
event log is the source of truth (see ``docs/ARCHITECTURE.md``).
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "apply_event": "repro.kernel.apply",
        "canonical_schema_json": "repro.kernel.apply",
        "event_label": "repro.kernel.apply",
        "schema_fingerprint": "repro.kernel.apply",
        "EventBus": "repro.kernel.bus",
        "EventEmitter": "repro.kernel.bus",
        "Subscription": "repro.kernel.bus",
        "NO_CHANGE": "repro.kernel.events",
        "Command": "repro.kernel.events",
        "Event": "repro.kernel.events",
        "Kernel": "repro.kernel.kernel",
        "RecoveryManager": "repro.kernel.recovery",
        "RecoveryReport": "repro.kernel.recovery",
        "merge_wal_records": "repro.kernel.recovery",
        "Snapshot": "repro.kernel.snapshots",
        "apply_state": "repro.kernel.snapshots",
        "WalOpenReport": "repro.kernel.wal",
        "WriteAheadLog": "repro.kernel.wal",
        "encode_record": "repro.kernel.wal",
        "scan_records": "repro.kernel.wal",
    },
)
