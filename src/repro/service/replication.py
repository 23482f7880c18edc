"""Service wiring for WAL-shipped read replicas.

Three pieces turn :mod:`repro.replication` into ``--replica-of``:

* :class:`ReplicationPlane` — one per :class:`ServiceApp`.  On a leader
  it is almost free: a role check per write and a follower registry for
  the ``replication.followers_connected`` gauge.  On a replica it owns
  the pump thread that polls the leader (status → inventory → per-
  session WAL fetch → apply), the lag bookkeeping behind the
  ``max_lag_s`` / ``X-Repro-Min-Offset`` read guards, and
  :meth:`promote` — the failover path that materializes every applier
  into real durable sessions and swaps the app onto its local
  :class:`~repro.service.manager.SessionManager`.

* :class:`ReplicaSessionManager` — a read-only stand-in for the session
  manager while the node follows: ``acquire`` hands out the appliers'
  live rebuilt sessions, so every read-only ``/v1`` handler (schemas,
  pairs, stats, suggestions, federated queries) works unchanged on a
  follower.

* Leader links — :class:`HttpLeaderLink` speaks the ``/v1/replication``
  wire protocol over stdlib HTTP; :class:`InProcessLeaderLink` drives a
  leader app's ``dispatch`` directly, which is what lets the tests (and
  the chaos harness) run a leader/replica pair deterministically in one
  process with no sockets.

Writes on a non-leader are refused before the handler runs
(:meth:`ReplicationPlane.enforce`), with the typed
``replication_not_leader`` / ``replication_fenced`` errors mapping to
503 so clients fail over instead of retrying blindly.

The plane also owns the **replication credential**: the shared
``replication_token`` a replica presents to its leader doubles as the
operator token each node requires on the ``/v1/replication`` control
surfaces (fence, promote) and for cross-tenant WAL/snapshot fetches —
tenant tokens only ever reach their own stream
(:meth:`ReplicationPlane.is_operator_token`).
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import threading
import time
import urllib.parse
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator

from repro.replication.applier import ReplicaApplier
from repro.replication.coordinator import ReplicationCoordinator
from repro.replication.errors import (
    NotLeaderError,
    ReplicaLagError,
    ReplicationError,
    ReplicationGapError,
)
from repro.replication.frames import decode_frames
from repro.replication.shipper import ShipCursor, Shipment
from repro.service.auth import require_safe_name
from repro.service.errors import UnknownSessionError
from repro.service.manager import (
    ManagerStats,
    SessionInfo,
    SessionManager,
    state_fingerprint,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.service.app import ServiceApp
    from repro.tool.session import ToolSession

#: POST routes that are semantically reads and stay replica-served
READ_ONLY_POSTS = frozenset(
    {
        "/v1/sessions/{sid}/query",
        "/v1/sessions/{sid}/assertions/explain",
    }
)

#: a follower counts as connected if seen within this many seconds
FOLLOWER_WINDOW_S = 15.0


# -- leader links ---------------------------------------------------------------


class InProcessLeaderLink:
    """Drive a leader :class:`ServiceApp` directly — no sockets.

    The deterministic test/chaos transport: every exchange is one
    ``dispatch`` call on the leader app, so a replica's ``sync_once``
    is fully synchronous and fault-injection plans hit leader-side
    crashpoints in the same process.
    """

    def __init__(
        self, leader_app: "ServiceApp", token: str, *,
        follower_id: str | None = None,
    ) -> None:
        self.leader_app = leader_app
        self.token = token
        self.follower_id = follower_id or uuid.uuid4().hex[:12]

    def _call(
        self,
        method: str,
        path: str,
        *,
        query: dict[str, str] | None = None,
        body: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        from repro.service.http import Request

        response = self.leader_app.dispatch(
            Request(
                method=method,
                path=path,
                query=dict(query or {}),
                headers={"authorization": f"Bearer {self.token}"},
                body=(
                    json.dumps(body).encode("utf-8")
                    if body is not None
                    else b""
                ),
            )
        )
        payload = response.json_payload()
        if response.status >= 400:
            raise ReplicationError(
                f"leader answered {response.status} on {method} {path}: "
                f"{payload}"
            )
        return payload

    def status(self) -> dict[str, Any]:
        return self._call(
            "GET",
            "/v1/replication/status",
            query={"follower": self.follower_id},
        )

    def inventory(self) -> list[dict[str, Any]]:
        reply = self._call(
            "GET",
            "/v1/replication/sessions",
            query={"follower": self.follower_id},
        )
        return list(reply.get("sessions", ()))

    def fetch_wal(
        self, tenant: str, session_id: str, cursor: ShipCursor | None
    ) -> dict[str, Any]:
        query = {"follower": self.follower_id}
        if cursor is not None:
            query["generation"] = cursor.generation
            query["records"] = str(cursor.records)
        return self._call(
            "GET",
            f"/v1/replication/wal/{tenant}/{session_id}",
            query=query,
        )

    def fetch_snapshot(
        self, tenant: str, session_id: str
    ) -> dict[str, Any]:
        return self._call(
            "GET", f"/v1/replication/snapshot/{tenant}/{session_id}"
        )

    def fence(self, epoch: int) -> dict[str, Any]:
        return self._call(
            "POST", "/v1/replication/fence", body={"epoch": int(epoch)}
        )


class HttpLeaderLink:
    """The same protocol over a real HTTP connection (stdlib only)."""

    def __init__(
        self, leader_url: str, token: str, *,
        follower_id: str | None = None, timeout: float = 10.0,
    ) -> None:
        self.leader_url = leader_url.rstrip("/")
        self.token = token
        self.follower_id = follower_id or uuid.uuid4().hex[:12]
        self.timeout = timeout

    def _call(
        self,
        method: str,
        path: str,
        *,
        query: dict[str, str] | None = None,
        body: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        # only a follower talks to a leader over HTTP: importing the
        # client here keeps ssl and email out of every server's start
        import http.client

        parsed = urllib.parse.urlsplit(self.leader_url)
        factory = (
            http.client.HTTPSConnection
            if parsed.scheme == "https"
            else http.client.HTTPConnection
        )
        connection = factory(
            parsed.hostname, parsed.port, timeout=self.timeout
        )
        if query:
            path = f"{path}?{urllib.parse.urlencode(query)}"
        headers = {"Authorization": f"Bearer {self.token}"}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        finally:
            connection.close()
        decoded = json.loads(raw) if raw else {}
        if response.status >= 400:
            raise ReplicationError(
                f"leader answered {response.status} on {method} {path}: "
                f"{decoded}"
            )
        return decoded

    status = InProcessLeaderLink.status
    inventory = InProcessLeaderLink.inventory
    fetch_wal = InProcessLeaderLink.fetch_wal
    fetch_snapshot = InProcessLeaderLink.fetch_snapshot
    fence = InProcessLeaderLink.fence


# -- the replica-mode session manager -------------------------------------------


class ReplicaSessionManager:
    """Read-only manager view over the plane's live appliers.

    Duck-types the :class:`SessionManager` surface the read handlers
    and the telemetry collector touch.  Writes never reach it — the
    plane's :meth:`~ReplicationPlane.enforce` refuses them first — so
    mutating methods are deliberately absent.
    """

    def __init__(self, plane: "ReplicationPlane", local: SessionManager):
        self.plane = plane
        self.local = local
        self._locks: dict[tuple[str, str], threading.RLock] = {}
        self._mutex = threading.Lock()

    def _lock_for(self, key: tuple[str, str]) -> threading.RLock:
        with self._mutex:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.RLock()
            return lock

    def _applier(self, tenant: str, session_id: str) -> ReplicaApplier:
        require_safe_name("tenant", tenant)
        require_safe_name("session id", session_id)
        applier = self.plane.applier_for(tenant, session_id)
        if applier is None or applier.state() is None:
            raise UnknownSessionError(session_id)
        return applier

    @contextmanager
    def acquire(
        self, tenant: str, session_id: str
    ) -> Iterator["ToolSession"]:
        applier = self._applier(tenant, session_id)
        with self._lock_for((tenant, session_id)):
            session = applier.session()
            if session is None:  # pragma: no cover - state checked above
                raise UnknownSessionError(session_id)
            yield session

    def require(self, tenant: str, session_id: str) -> None:
        self._applier(tenant, session_id)

    def info(self, tenant: str, session_id: str) -> SessionInfo:
        """The session's row of :meth:`sessions`."""
        self._applier(tenant, session_id)
        return SessionInfo(
            session_id=session_id, resident=True, pinned=False, approx_bytes=0
        )

    def sessions(self, tenant: str) -> list[SessionInfo]:
        require_safe_name("tenant", tenant)
        rows = []
        for (owner, session_id), applier in sorted(
            self.plane.appliers().items()
        ):
            if owner != tenant or applier.state() is None:
                continue
            rows.append(
                SessionInfo(
                    session_id=session_id,
                    resident=True,
                    pinned=False,
                    approx_bytes=0,
                )
            )
        return rows

    def session_count(self, tenant: str) -> int:
        return len(self.sessions(tenant))

    def fingerprint(self, tenant: str, session_id: str) -> str:
        with self.acquire(tenant, session_id) as session:
            return state_fingerprint(session)

    # pinning is a leader-side eviction concern; replicas never evict,
    # but pin() keeps the events-stream handler's 404 contract
    def pin(self, tenant: str, session_id: str) -> None:
        self._applier(tenant, session_id)

    def unpin(self, tenant: str, session_id: str) -> None:
        return None

    @contextmanager
    def pinned(self, tenant: str, session_id: str) -> Iterator[None]:
        self.pin(tenant, session_id)
        yield

    def stats(self) -> ManagerStats:
        appliers = self.plane.appliers()
        live = sum(
            1 for applier in appliers.values()
            if applier.state() is not None
        )
        return ManagerStats(
            resident_sessions=live,
            known_sessions=len(appliers),
            resident_bytes=0,
            max_resident=self.local.max_resident,
            max_resident_bytes=self.local.max_resident_bytes,
            evictions=0,
            rehydrations=0,
        )

    def federation_snapshot(self) -> list[dict[str, Any]]:
        return []

    def shutdown(self) -> int:
        return self.local.shutdown()


# -- the plane ------------------------------------------------------------------


class ReplicationPlane:
    """Role enforcement, pump, lag accounting and promotion for one app."""

    def __init__(
        self,
        app: "ServiceApp",
        coordinator: ReplicationCoordinator,
        *,
        link: InProcessLeaderLink | HttpLeaderLink | None = None,
        token: str | None = None,
        max_lag_s: float = 2.0,
        poll_s: float = 0.25,
    ) -> None:
        self.app = app
        self.coordinator = coordinator
        self.link = link
        # only the digest is kept, mirroring TenantAuth: a process dump
        # never yields the usable replication credential
        self._token_digest = (
            hashlib.sha256(token.encode("utf-8")).hexdigest()
            if token
            else None
        )
        self.max_lag_s = max_lag_s
        self.poll_s = poll_s
        self.local: SessionManager = app.manager
        self._appliers: dict[tuple[str, str], ReplicaApplier] = {}
        self._followers: dict[str, float] = {}
        self._mutex = threading.Lock()
        self._pump: threading.Thread | None = None
        self._stop = threading.Event()
        self._last_sync_at: float | None = None
        self._last_caught_up_at: float | None = None
        self.last_error: str | None = None
        self.promoted_at: float | None = None

    @classmethod
    def attach(
        cls,
        app: "ServiceApp",
        root: Path,
        *,
        replica_of: str | None = None,
        token: str | None = None,
        link: InProcessLeaderLink | HttpLeaderLink | None = None,
        max_lag_s: float = 2.0,
        poll_s: float = 0.25,
        autostart: bool = True,
    ) -> "ReplicationPlane":
        """Build the plane for an app; replica mode swaps the manager.

        The coordinator state file (``replication.json`` under the
        service root) is loaded when present, so a fenced ex-leader
        restarts fenced.
        """
        role = "replica" if replica_of or link else "leader"
        coordinator = ReplicationCoordinator(
            Path(root) / "replication.json",
            role=role,
            leader_url=replica_of,
        )
        if replica_of or link:
            # normalize a stale persisted leader role; fenced stays fenced
            coordinator.follow(replica_of)
        plane = cls(
            app,
            coordinator,
            link=link,
            token=token,
            max_lag_s=max_lag_s,
            poll_s=poll_s,
        )
        if coordinator.role == "replica":
            if plane.link is None:
                if not replica_of:
                    raise ReplicationError(
                        "replica mode needs a leader URL or link"
                    )
                plane.link = HttpLeaderLink(replica_of, token or "")
            app.manager = ReplicaSessionManager(plane, plane.local)
            if autostart:
                plane.start()
        return plane

    # -- role / request gating ------------------------------------------------

    @property
    def role(self) -> str:
        return self.coordinator.role

    def is_operator_token(self, token: str) -> bool:
        """Is this bearer token the node's replication credential?

        False whenever no replication token is configured — the control
        surfaces (fence, promote, cross-tenant stream access) are then
        unreachable rather than open.
        """
        if self._token_digest is None:
            return False
        presented = hashlib.sha256(token.encode("utf-8")).hexdigest()
        return hmac.compare_digest(self._token_digest, presented)

    def enforce(self, route, ctx) -> None:
        """The per-request gate, between auth and the handler.

        Writes anywhere but a leader get the typed 503; session reads
        on a replica get the lag and read-your-writes guards.
        """
        if route.pattern.startswith("/v1/replication"):
            return
        method = route.method
        if method in ("POST", "PUT", "PATCH", "DELETE"):
            if route.pattern not in READ_ONLY_POSTS:
                self.coordinator.require_writable()
                return
        if self.coordinator.role != "replica":
            return
        sid = ctx.params.get("sid")
        if sid is None or ctx.tenant is None:
            return
        applier = self.applier_for(ctx.tenant, sid)
        if applier is None:
            return  # the handler will 404 with the usual error
        lag = self.lag_seconds()
        if lag > self.max_lag_s:
            raise ReplicaLagError(
                f"replica is {lag:.2f}s behind (bound {self.max_lag_s}s)",
                lag_s=lag,
                retry_after=max(1.0, self.poll_s * 2),
            )
        raw = ctx.request.headers.get("x-repro-min-offset")
        if raw:
            try:
                min_offset = int(raw)
            except ValueError:
                min_offset = 0
            applied = applier.applied_offset()
            if applied < min_offset:
                raise ReplicaLagError(
                    f"replica applied offset {applied} is behind the "
                    f"requested minimum {min_offset}",
                    applied_offset=applied,
                    min_offset=min_offset,
                    lag_s=lag,
                    retry_after=max(1.0, self.poll_s * 2),
                )

    # -- follower registry (leader side) --------------------------------------

    def note_follower(self, follower_id: str | None) -> None:
        if not follower_id:
            return
        with self._mutex:
            self._followers[follower_id] = time.monotonic()

    def followers_connected(
        self, window_s: float = FOLLOWER_WINDOW_S
    ) -> int:
        horizon = time.monotonic() - window_s
        with self._mutex:
            return sum(
                1 for seen in self._followers.values() if seen >= horizon
            )

    # -- appliers / lag (replica side) -----------------------------------------

    def appliers(self) -> dict[tuple[str, str], ReplicaApplier]:
        with self._mutex:
            return dict(self._appliers)

    def applier_for(
        self, tenant: str, session_id: str
    ) -> ReplicaApplier | None:
        with self._mutex:
            return self._appliers.get((tenant, session_id))

    def lag_seconds(self) -> float:
        """Seconds since this node was last provably caught up."""
        if self.coordinator.role != "replica":
            return 0.0
        if self._last_caught_up_at is None:
            return float("inf")
        return max(0.0, time.monotonic() - self._last_caught_up_at)

    def offset_behind(self) -> int:
        if self.coordinator.role != "replica":
            return 0
        return sum(
            applier.offset_behind()
            for applier in self.appliers().values()
        )

    # -- the pump --------------------------------------------------------------

    def sync_once(self) -> int:
        """One full replication round; returns records applied.

        status (epoch observation) → inventory → per-session WAL fetch,
        decode with CRC re-verification, convergent apply; a stream gap
        falls back to a full snapshot resync.
        """
        link = self.link
        if link is None:
            raise ReplicationError("no leader link configured")
        status = link.status()
        self.coordinator.observe_epoch(int(status.get("epoch", 1)))
        applied_total = 0
        behind_total = 0
        seen: set[tuple[str, str]] = set()
        for row in link.inventory():
            tenant = str(row["tenant"])
            session_id = str(row["session_id"])
            key = (tenant, session_id)
            seen.add(key)
            with self._mutex:
                applier = self._appliers.get(key)
                if applier is None:
                    applier = self._appliers[key] = ReplicaApplier()
            if row.get("has_wal"):
                reply = link.fetch_wal(tenant, session_id, applier.cursor)
                frames = base64.b64decode(reply.get("frames", "") or "")
                records, _good, _torn = decode_frames(frames)
                shipment = Shipment(
                    records=tuple(records),
                    cursor=ShipCursor(
                        str(reply.get("generation", "")),
                        int(reply.get("start", 0)) + len(records),
                    ),
                    restarted=bool(reply.get("restarted")),
                    damaged=bool(reply.get("damaged")),
                    quarantined=tuple(reply.get("quarantined", ())),
                )
                try:
                    applied_total += applier.apply(shipment)
                except ReplicationGapError:
                    snapshot = link.fetch_snapshot(tenant, session_id)
                    applier.resync(snapshot["state"])
            elif applier.state() is None:
                snapshot = link.fetch_snapshot(tenant, session_id)
                applier.resync(snapshot["state"])
            offset = row.get("offset")
            if offset is None:
                offset = applier.applied_offset()
            applier.observe_leader_offset(int(offset))
            behind_total += applier.offset_behind()
        # deletes propagate: a session purged on the leader leaves the
        # inventory, so its applier is dropped here — the replica stops
        # serving it, and a later promote cannot materialize it back
        with self._mutex:
            for key in list(self._appliers):
                if key not in seen:
                    del self._appliers[key]
        now = time.monotonic()
        self._last_sync_at = now
        if behind_total == 0:
            self._last_caught_up_at = now
        self.last_error = None
        return applied_total

    def start(self) -> None:
        if self._pump is not None and self._pump.is_alive():
            return
        self._stop.clear()

        def pump() -> None:
            while not self._stop.is_set():
                if self.coordinator.role != "replica":
                    break
                try:
                    self.sync_once()
                except Exception as exc:  # noqa: BLE001 - keep following
                    self.last_error = f"{type(exc).__name__}: {exc}"
                self._stop.wait(self.poll_s)

        self._pump = threading.Thread(
            target=pump, name="repro-replication-pump", daemon=True
        )
        self._pump.start()

    def stop(self) -> None:
        self._stop.set()
        pump = self._pump
        if pump is not None and pump.is_alive():
            pump.join(timeout=5.0)
        self._pump = None

    # -- failover --------------------------------------------------------------

    def promote(self) -> dict[str, Any]:
        """Take over as leader: fence epoch, materialize, swap manager.

        Every applier's state is saved as a real durable session under
        the local manager's root, then the app serves reads *and writes*
        through the ordinary :class:`SessionManager` (which re-opens
        each save with a fresh self-anchoring WAL generation on first
        acquire).  Finally the old leader is fenced, best-effort — if it
        is down, its persisted epoch check fences it on resurrection
        the moment it hears the new epoch.
        """
        self.stop()
        epoch = self.coordinator.promote()
        materialized = []
        for (tenant, session_id), applier in sorted(
            self.appliers().items()
        ):
            session = applier.session()
            if session is None:
                continue
            path = self.local.save_path(tenant, session_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            session.save(path)
            materialized.append(f"{tenant}/{session_id}")
        self.app.manager = self.local
        self.promoted_at = time.monotonic()
        if self.link is not None:
            try:
                self.link.fence(epoch)
            except Exception:  # noqa: BLE001 - old leader may be dead
                pass
        status = self.coordinator.status()
        status["materialized"] = materialized
        return status


__all__ = [
    "FOLLOWER_WINDOW_S",
    "HttpLeaderLink",
    "InProcessLeaderLink",
    "READ_ONLY_POSTS",
    "ReplicaSessionManager",
    "ReplicationPlane",
]
