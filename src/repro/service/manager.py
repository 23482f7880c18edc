"""The session manager: bounded resident kernels over durable checkpoints.

A :class:`SessionManager` owns every tenant's integration sessions.  At
any moment a session is either **resident** — a live
:class:`~repro.tool.session.ToolSession` with its event-sourced kernel
in memory — or **parked** at its WAL-backed checkpoint on disk
(``<root>/<tenant>/<session>.json`` plus the ``.wal/`` directory beside
it).  The durability layer makes the two interchangeable:
:meth:`ToolSession.save` parks, :meth:`ToolSession.open` (through the
:class:`~repro.kernel.recovery.RecoveryManager`) rehydrates, and the
state fingerprint is identical on both sides — the property
``tests/service/test_manager_concurrency.py`` hammers.

Residency is bounded two ways, enforced after every release:

* **LRU count** — at most ``max_resident`` kernels stay live; the
  least-recently-used idle session is parked first.
* **memory watermark** — the sum of estimated kernel sizes (serialized
  event log + baseline) stays under ``max_resident_bytes``.

Sessions pinned by a background job (:mod:`repro.service.jobs`) are
never auto-evicted, and an explicit eviction of a pinned session raises
:class:`~repro.service.errors.SessionBusyError` — parking a kernel
mid-job would checkpoint a state the job is still mutating.

Tenant isolation is structural: every path is derived from the
validated tenant name, so no request can address another tenant's
files, and all lookups are keyed by ``(tenant, session_id)``.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.trace import span
from repro.replication.applier import payload_fingerprint
from repro.service.auth import require_safe_name
from repro.service.errors import (
    CapacityError,
    SessionBusyError,
    SessionExistsError,
    UnknownSessionError,
)
from repro.tool.session import ToolSession


def state_fingerprint(session: ToolSession) -> str:
    """SHA-256 over the session's canonical ``state_payload``.

    The payload is history-independent (sorted classes/assertions), so
    two sessions holding the same schemas, equivalences and assertions
    fingerprint identically — the evict→rehydrate round-trip contract,
    and the leader/replica parity proof (the replication layer hashes
    through the same :func:`~repro.replication.payload_fingerprint`).
    """
    return payload_fingerprint(session.analysis.state_payload())


@dataclass
class _Record:
    """One known session: residency, lock, pins and bookkeeping."""

    tenant: str
    session_id: str
    lock: threading.RLock = field(default_factory=threading.RLock)
    session: ToolSession | None = None
    #: monotonic use counter (manager-wide), for LRU ordering
    last_used: int = 0
    #: background jobs currently holding this session resident
    pins: int = 0
    #: estimated resident footprint (serialized kernel state bytes)
    approx_bytes: int = 0
    #: kernel offset the estimate was taken at (re-measured as it drifts)
    sized_at_offset: int = -1


@dataclass(frozen=True)
class SessionInfo:
    """One row of a tenant's session listing."""

    session_id: str
    resident: bool
    pinned: bool
    approx_bytes: int

    def to_wire(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "resident": self.resident,
            "pinned": self.pinned,
            "approx_bytes": self.approx_bytes,
        }


@dataclass(frozen=True)
class ManagerStats:
    """The manager's residency counters (the ``/v1/stats`` payload)."""

    resident_sessions: int
    known_sessions: int
    resident_bytes: int
    max_resident: int
    max_resident_bytes: int | None
    evictions: int
    rehydrations: int

    def to_wire(self) -> dict[str, Any]:
        return {
            "resident_sessions": self.resident_sessions,
            "known_sessions": self.known_sessions,
            "resident_bytes": self.resident_bytes,
            "max_resident": self.max_resident,
            "max_resident_bytes": self.max_resident_bytes,
            "evictions": self.evictions,
            "rehydrations": self.rehydrations,
        }


class SessionManager:
    """Bounded pool of resident :class:`ToolSession` kernels per tenant."""

    def __init__(
        self,
        root: str | Path,
        *,
        max_resident: int = 8,
        max_resident_bytes: int | None = None,
        max_sessions_per_tenant: int = 64,
    ) -> None:
        self.root = Path(root)
        self.max_resident = max(1, int(max_resident))
        self.max_resident_bytes = max_resident_bytes
        self.max_sessions_per_tenant = max_sessions_per_tenant
        self._mutex = threading.Lock()
        self._records: dict[tuple[str, str], _Record] = {}
        #: per tenant, the ids :meth:`sessions` lists — records plus the
        #: checkpoints on disk, globbed once when the tenant is first seen
        self._tenant_ids: dict[str, set[str]] = {}
        self._use_counter = 0
        self.evictions = 0
        self.rehydrations = 0

    # -- paths -------------------------------------------------------------------

    def tenant_dir(self, tenant: str) -> Path:
        return self.root / require_safe_name("tenant", tenant)

    def save_path(self, tenant: str, session_id: str) -> Path:
        require_safe_name("session id", session_id)
        return self.tenant_dir(tenant) / f"{session_id}.json"

    # -- record plumbing ---------------------------------------------------------

    def _touch(self, record: _Record) -> None:
        self._use_counter += 1
        record.last_used = self._use_counter

    def _owned(self, tenant: str) -> set[str]:
        """The tenant's session ids.  Caller holds ``_mutex``."""
        owned = self._tenant_ids.get(tenant)
        if owned is None:
            owned = {sid for t, sid in self._records if t == tenant}
            tenant_dir = self.tenant_dir(tenant)
            if tenant_dir.exists():
                owned.update(entry.stem for entry in tenant_dir.glob("*.json"))
            self._tenant_ids[tenant] = owned
        return owned

    def _get_record(
        self, tenant: str, session_id: str, *, create: bool
    ) -> _Record:
        require_safe_name("session id", session_id)
        require_safe_name("tenant", tenant)
        key = (tenant, session_id)
        with self._mutex:
            record = self._records.get(key)
            if record is None:
                path = self.save_path(tenant, session_id)
                wal_dir = Path(f"{path}.wal")
                on_disk = path.exists() or (
                    wal_dir.exists() and any(wal_dir.glob("wal-*.seg"))
                )
                if not on_disk and not create:
                    raise UnknownSessionError(session_id)
                owned = self._owned(tenant)
                if (
                    not on_disk
                    and len(owned) >= self.max_sessions_per_tenant
                ):
                    raise CapacityError(
                        f"tenant {tenant!r} reached its session quota "
                        f"({self.max_sessions_per_tenant})"
                    )
                record = _Record(tenant=tenant, session_id=session_id)
                self._records[key] = record
                owned.add(session_id)
            self._touch(record)
            return record

    # -- lifecycle ---------------------------------------------------------------

    def create(self, tenant: str, session_id: str) -> SessionInfo:
        """Create a fresh durable session; its checkpoint materializes now."""
        path = self.save_path(tenant, session_id)
        key = (tenant, session_id)
        with self._mutex:
            exists = key in self._records and (
                self._records[key].session is not None
            )
        if exists or path.exists():
            raise SessionExistsError(session_id)
        record = self._get_record(tenant, session_id, create=True)
        with record.lock:
            if record.session is not None or path.exists():
                raise SessionExistsError(session_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            with span("service.session.create"):
                session = ToolSession.open(path)
                session.save(path)
            record.session = session
            self._measure(record)
        self._enforce_bounds()
        return self._info(record)

    @contextmanager
    def acquire(
        self, tenant: str, session_id: str
    ) -> Iterator[ToolSession]:
        """Borrow a session exclusively; rehydrates a parked one on demand.

        The record lock is held for the duration, so concurrent requests
        against one session serialize while distinct sessions (and
        tenants) proceed in parallel.  Residency bounds are enforced
        after release.
        """
        record = self._get_record(tenant, session_id, create=False)
        with record.lock:
            if record.session is None:
                with span("service.session.rehydrate"):
                    record.session = ToolSession.open(
                        self.save_path(tenant, session_id), create=False
                    )
                with self._mutex:
                    self.rehydrations += 1
            self._measure_if_stale(record)
            try:
                yield record.session
            finally:
                self._measure_if_stale(record)
                with self._mutex:
                    self._touch(record)
        self._enforce_bounds()

    def checkpoint(self, tenant: str, session_id: str) -> SessionInfo:
        """Save the session's durable checkpoint without parking it."""
        record = self._get_record(tenant, session_id, create=False)
        with record.lock:
            if record.session is not None:
                with span("service.session.checkpoint"):
                    record.session.save(
                        self.save_path(tenant, session_id)
                    )
                self._measure(record)
        return self._info(record)

    def evict(self, tenant: str, session_id: str) -> bool:
        """Park a session at its checkpoint; True when it was resident.

        Refuses (``SessionBusyError``) when a background job holds a pin
        or another request is mid-flight on the session.
        """
        record = self._get_record(tenant, session_id, create=False)
        if not record.lock.acquire(blocking=False):
            raise SessionBusyError(
                f"session {session_id!r} is serving a request"
            )
        try:
            with self._mutex:
                if record.pins:
                    raise SessionBusyError(
                        f"session {session_id!r} is pinned by a background job"
                    )
            return self._park(record)
        finally:
            record.lock.release()

    def _park(self, record: _Record) -> bool:
        """Save and drop a resident kernel, closing its WAL segment.

        Caller holds the record lock.
        """
        session = record.session
        if session is None:
            return False
        with span("service.session.evict"):
            session.save(self.save_path(record.tenant, record.session_id))
        session.wal.close()
        record.session = None
        record.sized_at_offset = -1
        with self._mutex:
            self.evictions += 1
        return True

    def purge(self, tenant: str, session_id: str) -> None:
        """Delete a session's checkpoint and WAL for good."""
        record = self._get_record(tenant, session_id, create=False)
        if not record.lock.acquire(blocking=False):
            raise SessionBusyError(
                f"session {session_id!r} is serving a request"
            )
        try:
            with self._mutex:
                if record.pins:
                    raise SessionBusyError(
                        f"session {session_id!r} is pinned by a background job"
                    )
                self._records.pop((tenant, session_id), None)
                self._owned(tenant).discard(session_id)
            if record.session is not None:
                record.session.wal.close()
            record.session = None
            path = self.save_path(tenant, session_id)
            path.unlink(missing_ok=True)
            wal_dir = Path(f"{path}.wal")
            if wal_dir.exists():
                for entry in wal_dir.iterdir():
                    entry.unlink()
                wal_dir.rmdir()
        finally:
            record.lock.release()

    # -- pinning (background jobs) ----------------------------------------------

    def pin(self, tenant: str, session_id: str) -> None:
        """Hold a session safe from eviction while a job runs on it."""
        record = self._get_record(tenant, session_id, create=False)
        with self._mutex:
            record.pins += 1

    def unpin(self, tenant: str, session_id: str) -> None:
        with self._mutex:
            record = self._records.get((tenant, session_id))
            if record is not None and record.pins > 0:
                record.pins -= 1

    @contextmanager
    def pinned(self, tenant: str, session_id: str) -> Iterator[None]:
        self.pin(tenant, session_id)
        try:
            yield
        finally:
            self.unpin(tenant, session_id)

    # -- residency bounds --------------------------------------------------------

    def _measure(self, record: _Record) -> None:
        session = record.session
        if session is None:
            return
        kernel = session.analysis.kernel
        state = kernel.export_state()
        record.approx_bytes = 4096 + len(
            json.dumps(state, separators=(",", ":"))
        )
        record.sized_at_offset = kernel.bus.offset

    def _measure_if_stale(self, record: _Record, drift: int = 32) -> None:
        session = record.session
        if session is None:
            return
        offset = session.analysis.kernel.bus.offset
        if abs(offset - record.sized_at_offset) >= drift or (
            record.sized_at_offset < 0
        ):
            self._measure(record)

    def resident_bytes(self) -> int:
        with self._mutex:
            return sum(
                record.approx_bytes
                for record in self._records.values()
                if record.session is not None
            )

    def resident_count(self) -> int:
        with self._mutex:
            return sum(
                1
                for record in self._records.values()
                if record.session is not None
            )

    def _over_bounds(self) -> bool:
        resident = 0
        total = 0
        for record in self._records.values():
            if record.session is not None:
                resident += 1
                total += record.approx_bytes
        if resident > self.max_resident:
            return True
        return (
            self.max_resident_bytes is not None
            and total > self.max_resident_bytes
            and resident > 1  # never park the only working set member
        )

    def _enforce_bounds(self) -> None:
        """Park LRU idle sessions until both residency bounds hold."""
        while True:
            with self._mutex:
                if not self._over_bounds():
                    return
                candidates = sorted(
                    (
                        record
                        for record in self._records.values()
                        if record.session is not None and record.pins == 0
                    ),
                    key=lambda record: record.last_used,
                )
            parked = False
            for record in candidates:
                if not record.lock.acquire(blocking=False):
                    continue  # busy: a request is on it right now
                try:
                    with self._mutex:
                        if record.pins:
                            continue
                    if self._park(record):
                        parked = True
                        break
                finally:
                    record.lock.release()
            if not parked:
                return  # everything over the bound is busy or pinned

    # -- introspection -----------------------------------------------------------

    def require(self, tenant: str, session_id: str) -> None:
        """Raise :class:`UnknownSessionError` unless the session exists.

        A cheap existence check for endpoints (the SSE streams) that
        must 404 on foreign or missing sessions before doing any work.
        """
        self._get_record(tenant, session_id, create=False)

    #: numeric breaker states for the ``repro_federation_breaker_state``
    #: gauge (0 = closed/healthy, 1 = half-open probe, 2 = open/skipping)
    BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}

    def federation_snapshot(self) -> list[dict[str, Any]]:
        """Federation health of every resident session with an engine.

        One entry per session: breaker state per component plus the
        engine's total retry count.  Reads are lock-free on the engine
        side (scrape-time telemetry tolerates a torn read; the breaker
        dicts are only ever appended to).
        """
        with self._mutex:
            resident = [
                (record.tenant, record.session_id, record.session)
                for record in self._records.values()
                if record.session is not None
            ]
        snapshot: list[dict[str, Any]] = []
        for tenant, session_id, session in resident:
            engine = getattr(session, "federation", None)
            if engine is None:
                continue
            executor = getattr(engine, "executor", None)
            if executor is None:
                continue
            breakers = {
                component: self.BREAKER_STATE_VALUES.get(
                    str(breaker.state), 0
                )
                for component, breaker in dict(
                    executor._breakers
                ).items()
            }
            retries = 0
            metrics = getattr(engine, "metrics", None)
            if metrics is not None:
                counter = metrics.counters().get("federation.retries")
                if counter is not None:
                    retries = counter.value
            snapshot.append(
                {
                    "tenant": tenant,
                    "session_id": session_id,
                    "breakers": breakers,
                    "retries": retries,
                }
            )
        return snapshot

    def _info(self, record: _Record) -> SessionInfo:
        return SessionInfo(
            session_id=record.session_id,
            resident=record.session is not None,
            pinned=record.pins > 0,
            approx_bytes=record.approx_bytes,
        )

    def info(self, tenant: str, session_id: str) -> SessionInfo:
        """The session's row of :meth:`sessions`, without listing the
        tenant directory."""
        return self._info(self._get_record(tenant, session_id, create=False))

    def sessions(self, tenant: str) -> list[SessionInfo]:
        """Every session the tenant owns: resident and parked."""
        require_safe_name("tenant", tenant)
        with self._mutex:
            known = {
                record.session_id: self._info(record)
                for (owner, _), record in self._records.items()
                if owner == tenant
            }
        tenant_dir = self.tenant_dir(tenant)
        if tenant_dir.exists():
            for path in sorted(tenant_dir.glob("*.json")):
                session_id = path.stem
                if session_id not in known:
                    known[session_id] = SessionInfo(
                        session_id=session_id,
                        resident=False,
                        pinned=False,
                        approx_bytes=0,
                    )
        return [known[name] for name in sorted(known)]

    def session_count(self, tenant: str) -> int:
        """``len(self.sessions(tenant))``, without listing the tenant
        directory."""
        require_safe_name("tenant", tenant)
        with self._mutex:
            return len(self._owned(tenant))

    def replication_inventory(self) -> list[dict[str, Any]]:
        """Every session a follower must replicate, across all tenants.

        One row per ``(tenant, session_id)`` known in memory or parked
        on disk: the leader's current log length for lag accounting
        (live bus offset when resident, unknown otherwise) and whether a
        WAL directory exists to ship from.  Served by
        ``GET /v1/replication/sessions``.
        """
        rows: dict[tuple[str, str], dict[str, Any]] = {}
        with self._mutex:
            resident = [
                (record.tenant, record.session_id, record.session)
                for record in self._records.values()
            ]
        for tenant, session_id, session in resident:
            offset = None
            if session is not None:
                offset = session.analysis.kernel.bus.offset
            rows[(tenant, session_id)] = {
                "tenant": tenant,
                "session_id": session_id,
                "offset": offset,
            }
        if self.root.exists():
            for tenant_dir in sorted(self.root.iterdir()):
                if not tenant_dir.is_dir():
                    continue
                for path in sorted(tenant_dir.glob("*.json")):
                    key = (tenant_dir.name, path.stem)
                    rows.setdefault(
                        key,
                        {
                            "tenant": tenant_dir.name,
                            "session_id": path.stem,
                            "offset": None,
                        },
                    )
        inventory = []
        for (tenant, session_id), row in sorted(rows.items()):
            wal_dir = Path(f"{self.save_path(tenant, session_id)}.wal")
            row["has_wal"] = wal_dir.exists() and any(
                wal_dir.glob("wal-*.seg")
            )
            inventory.append(row)
        return inventory

    def fingerprint(self, tenant: str, session_id: str) -> str:
        """The session's current state fingerprint (rehydrates if parked)."""
        with self.acquire(tenant, session_id) as session:
            return state_fingerprint(session)

    def stats(self) -> ManagerStats:
        with self._mutex:
            resident = [
                record
                for record in self._records.values()
                if record.session is not None
            ]
            return ManagerStats(
                resident_sessions=len(resident),
                known_sessions=len(self._records),
                resident_bytes=sum(r.approx_bytes for r in resident),
                max_resident=self.max_resident,
                max_resident_bytes=self.max_resident_bytes,
                evictions=self.evictions,
                rehydrations=self.rehydrations,
            )

    def shutdown(self) -> int:
        """Park every resident session; returns how many were parked."""
        parked = 0
        with self._mutex:
            records = list(self._records.values())
        for record in records:
            with record.lock:
                if record.session is not None and self._park(record):
                    parked += 1
        return parked


__all__ = [
    "ManagerStats",
    "SessionInfo",
    "SessionManager",
    "state_fingerprint",
]
