"""`repro.replication` — WAL shipping, replica apply, fencing, failover.

The durability layer doubled as a replication stream (see
``docs/REPLICATION.md``): a leader's CRC-framed write-ahead log is
tailed read-only by a :class:`WalShipper`, shipped as wire frames in the
same framing (:mod:`repro.replication.frames`), and folded into follower
state by a :class:`ReplicaApplier` through the *same* convergent,
duplicate-skipping merge crash recovery uses — so "replica" is just
"continuous recovery from someone else's log", and every damage case
(torn frame, quarantined segment, generation gap) already has defined
semantics.

:class:`ReplicationCoordinator` persists the node's role and fencing
epoch (a revived stale leader refuses writes);
:class:`ReplicaClient` is the reference read-routing / write-failover
client.  The service wiring — ``--replica-of``, lag-bounded reads,
promotion endpoints — lives in :mod:`repro.service`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "FencedError",
    "NotLeaderError",
    "ROLES",
    "ReplicaApplier",
    "ReplicaClient",
    "ReplicaLagError",
    "ReplicationCoordinator",
    "ReplicationError",
    "ReplicationGapError",
    "ShipCursor",
    "Shipment",
    "WalShipper",
    "decode_frames",
    "encode_frames",
    "payload_fingerprint",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ReplicaApplier": "repro.replication.applier",
        "payload_fingerprint": "repro.replication.applier",
        "ReplicaClient": "repro.replication.client",
        "ROLES": "repro.replication.coordinator",
        "ReplicationCoordinator": "repro.replication.coordinator",
        "FencedError": "repro.replication.errors",
        "NotLeaderError": "repro.replication.errors",
        "ReplicaLagError": "repro.replication.errors",
        "ReplicationError": "repro.replication.errors",
        "ReplicationGapError": "repro.replication.errors",
        "decode_frames": "repro.replication.frames",
        "encode_frames": "repro.replication.frames",
        "ShipCursor": "repro.replication.shipper",
        "Shipment": "repro.replication.shipper",
        "WalShipper": "repro.replication.shipper",
    },
)
