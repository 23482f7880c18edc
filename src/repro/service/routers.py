"""The versioned route table: ``/v1/...`` paths onto session operations.

Routes are declared data — method, pattern, handler, auth flag, success
status — matched by :class:`Router`.  Handlers are small: authenticate
(done by the app before the handler runs), borrow the session from the
:class:`~repro.service.manager.SessionManager`, call the library, and
return a JSON-ready dict.  Error → status mapping happens centrally in
:mod:`repro.service.app` via the code table, never per route.

The path grammar is ``{name}`` placeholders over slash-separated
segments, e.g. ``/v1/sessions/{sid}/schemas/{name}``.
"""

from __future__ import annotations

import base64
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from repro.assertions.kinds import AssertionKind
from repro.ecr.ddl import parse_ddl, to_ddl
from repro.ecr.json_io import schema_to_dict
from repro.errors import UnknownNameError
from repro.obs.telemetry import PROMETHEUS_CONTENT_TYPE, sse_stream
from repro.replication.errors import NotLeaderError
from repro.replication.frames import encode_frames
from repro.replication.shipper import ShipCursor, WalShipper
from repro.service.errors import (
    BadRequestError,
    MethodNotAllowedError,
    RouteNotFoundError,
    TenantAccessError,
)
from repro.service.http import Request, Response, StreamingResponse
from repro.service.manager import state_fingerprint

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.service.app import ServiceApp


@dataclass
class Context:
    """Everything a handler sees for one request."""

    app: "ServiceApp"
    request: Request
    params: dict[str, str]
    tenant: str | None = None
    #: the request presented the configured replication-plane token
    #: (``auth="replication"`` routes only); operators are tenant-less
    operator: bool = False
    #: the correlation id dispatch bound to this request
    request_id: str = ""

    @property
    def manager(self):
        return self.app.manager

    @property
    def jobs(self):
        return self.app.jobs

    def body(self) -> dict[str, Any]:
        return self.request.json_object()

    def require(self, payload: dict[str, Any], key: str) -> Any:
        try:
            return payload[key]
        except KeyError:
            raise BadRequestError(f"missing required field {key!r}")

    def flag(self, name: str) -> bool:
        value = self.request.query.get(name, "")
        return value.lower() in ("1", "true", "yes")


Handler = Callable[[Context], Any]


@dataclass(frozen=True)
class Route:
    method: str
    pattern: str
    handler: Handler
    #: True — tenant bearer token required; False — anonymous;
    #: "replication" — the replication-plane token authenticates as an
    #: operator, any tenant token authenticates as that tenant
    auth: bool | str = True
    status: int = 200
    regex: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        escaped = re.sub(
            r"\{(\w+)\}", r"(?P<\1>[^/]+)", re.escape(self.pattern).replace(
                r"\{", "{"
            ).replace(r"\}", "}")
        )
        object.__setattr__(self, "regex", re.compile(f"^{escaped}$"))


class Router:
    """Matches (method, path) to a route and its extracted params."""

    def __init__(self, routes: list[Route] | None = None) -> None:
        self.routes: list[Route] = list(routes or ())

    def add(
        self,
        method: str,
        pattern: str,
        handler: Handler,
        *,
        auth: bool | str = True,
        status: int = 200,
    ) -> None:
        self.routes.append(
            Route(method.upper(), pattern, handler, auth, status)
        )

    def match(self, method: str, path: str) -> tuple[Route, dict[str, str]]:
        allowed: set[str] = set()
        for route in self.routes:
            found = route.regex.match(path)
            if not found:
                continue
            if route.method != method:
                allowed.add(route.method)
                continue
            return route, found.groupdict()
        if allowed:
            raise MethodNotAllowedError(
                f"{method} not allowed on {path}", tuple(allowed)
            )
        raise RouteNotFoundError(f"no route for {path}")


# -- shared helpers ---------------------------------------------------------------


def parse_kind(value: Any) -> AssertionKind:
    """An assertion kind from its menu code (0-5) or name."""
    if isinstance(value, bool):
        raise BadRequestError("assertion 'kind' must be a code or name")
    if isinstance(value, int):
        try:
            return AssertionKind(value)
        except ValueError:
            raise BadRequestError(f"unknown assertion code {value}")
    if isinstance(value, str):
        text = value.strip().upper()
        if text.isdigit():
            return parse_kind(int(text))
        try:
            return AssertionKind[text]
        except KeyError:
            raise BadRequestError(f"unknown assertion kind {value!r}")
    raise BadRequestError("assertion 'kind' must be a code or name")


def assertion_wire(assertion, relationships: bool) -> dict[str, Any]:
    return {
        "first": str(assertion.first),
        "second": str(assertion.second),
        "kind": assertion.kind.name,
        "kind_code": assertion.kind.code,
        "source": assertion.source.name,
        "note": assertion.note,
        "relationships": relationships,
    }


def head_fingerprint(session) -> str:
    """:func:`state_fingerprint`, computed once per kernel head."""
    return session.analysis.kernel.read_at_head(
        "state_fingerprint", lambda: state_fingerprint(session)
    )


def session_detail(session, info) -> dict[str, Any]:
    kernel = session.analysis.kernel
    return {
        "session_id": info.session_id,
        "resident": info.resident,
        "pinned": info.pinned,
        "approx_bytes": info.approx_bytes,
        "schemas": sorted(session.schemas),
        "selected_pair": (
            list(session.selected_pair) if session.selected_pair else None
        ),
        "equivalence_classes": len(
            session.registry.nontrivial_classes()
        ),
        "head": kernel.head,
        "events": kernel.bus.offset,
        "integrated": (
            session.result.schema.name if session.result else None
        ),
        "state_fingerprint": head_fingerprint(session),
    }


# -- meta ------------------------------------------------------------------------


def get_healthz(ctx: Context) -> dict[str, Any]:
    return {"status": "ok"}


def get_about(ctx: Context) -> dict[str, Any]:
    import repro

    return {
        "service": "repro-integration-service",
        "version": repro.__version__,
        "api": "v1",
    }


def get_stats(ctx: Context) -> dict[str, Any]:
    jobs = ctx.jobs.list(ctx.tenant)
    return {
        "manager": ctx.manager.stats().to_wire(),
        "tenant": {
            "sessions": ctx.manager.session_count(ctx.tenant),
            "jobs": len(jobs),
            "jobs_pending": sum(
                1 for job in jobs if job.state in ("queued", "running")
            ),
        },
    }


# -- telemetry: exposition + SSE streams ------------------------------------------


def get_metrics(ctx: Context) -> Response:
    """``GET /v1/metrics`` — Prometheus text exposition (no auth)."""
    telemetry = ctx.app.telemetry
    if not telemetry.enabled:
        raise RouteNotFoundError("telemetry is disabled on this service")
    text = telemetry.render(ctx.app)
    return Response(
        status=200,
        headers={"content-type": PROMETHEUS_CONTENT_TYPE},
        body=text.encode("utf-8"),
    )


def _stream_options(ctx: Context) -> dict[str, Any]:
    """SSE bounds from query parameters (``max_events=0`` etc. are 400s)."""

    def positive_float(name: str) -> float | None:
        raw = ctx.request.query.get(name)
        if raw is None:
            return None
        try:
            value = float(raw)
        except ValueError:
            raise BadRequestError(
                f"query parameter {name!r} must be a number"
            )
        if value <= 0:
            raise BadRequestError(
                f"query parameter {name!r} must be positive"
            )
        return value

    max_events: int | None = None
    raw = ctx.request.query.get("max_events")
    if raw is not None:
        try:
            max_events = int(raw)
        except ValueError:
            raise BadRequestError("'max_events' must be an integer")
        if max_events <= 0:
            raise BadRequestError("'max_events' must be positive")
    options: dict[str, Any] = {
        "max_events": max_events,
        "timeout_s": positive_float("timeout_s"),
        "idle_s": positive_float("idle_s"),
    }
    heartbeat = positive_float("heartbeat_s")
    if heartbeat is not None:
        options["heartbeat_s"] = heartbeat
    # micro-batch window: collect this long after the first item of a
    # chunk before writing; 0 disables batching for latency-critical
    # consumers.  Defaults to 50 ms.
    options["linger_s"] = 0.05
    raw = ctx.request.query.get("linger_s")
    if raw is not None:
        try:
            linger = float(raw)
        except ValueError:
            raise BadRequestError(
                "query parameter 'linger_s' must be a number"
            )
        if linger < 0:
            raise BadRequestError(
                "query parameter 'linger_s' must not be negative"
            )
        options["linger_s"] = linger
    return options


def get_events_stream(ctx: Context) -> StreamingResponse:
    """``GET /v1/sessions/{sid}/events/stream`` — live kernel events.

    Attaches a (shared, ref-counted) live-only tap on the session's
    kernel bus and streams every committed event as one SSE frame —
    the same taxonomy as the audit log, each stamped with the request
    id of the mutation that produced it.  The session is pinned while
    the stream is open so eviction cannot sever the tap.
    """
    telemetry = ctx.app.telemetry
    if not telemetry.enabled:
        raise RouteNotFoundError("telemetry is disabled on this service")
    options = _stream_options(ctx)
    sid = ctx.params["sid"]
    key = (ctx.tenant, sid)
    manager = ctx.manager
    subscription = telemetry.events_hub.subscribe(key)
    try:
        manager.pin(ctx.tenant, sid)  # 404s on foreign/missing sessions
    except BaseException:
        subscription.close()
        raise
    try:
        with manager.acquire(ctx.tenant, sid) as session:
            telemetry.attach_event_tap(key, session.analysis.kernel.bus)
    except BaseException:
        manager.unpin(ctx.tenant, sid)
        subscription.close()
        raise

    def on_close() -> None:
        telemetry.release_event_tap(key)
        manager.unpin(ctx.tenant, sid)

    return StreamingResponse.sse(
        sse_stream(
            subscription,
            event="kernel-event",
            on_close=on_close,
            **options,
        )
    )


def span_frame(item: Any) -> dict[str, Any]:
    """Serialise one published ``(span, request_id)`` pair for SSE.

    The spans hub carries raw pairs so request threads pay only a ring
    append; this transform runs on the stream's connection thread, where
    the consumer that asked for the data foots the serialisation bill.
    """
    span, request_id = item
    frame = span.to_dict()
    frame["seq"] = span.span_id
    frame["request_id"] = request_id
    return frame


def get_spans_stream(ctx: Context) -> StreamingResponse:
    """``GET /v1/sessions/{sid}/spans/stream`` — live tracer spans.

    Streams every span finished by requests and background jobs
    touching the session, through a bounded drop-oldest ring per
    subscriber (the ``end`` frame reports how many were dropped).
    """
    telemetry = ctx.app.telemetry
    if not telemetry.enabled:
        raise RouteNotFoundError("telemetry is disabled on this service")
    options = _stream_options(ctx)
    sid = ctx.params["sid"]
    ctx.manager.require(ctx.tenant, sid)  # 404 before subscribing
    subscription = telemetry.spans_hub.subscribe((ctx.tenant, sid))
    return StreamingResponse.sse(
        sse_stream(
            subscription, event="span", transform=span_frame, **options
        )
    )


# -- sessions --------------------------------------------------------------------


def post_sessions(ctx: Context) -> dict[str, Any]:
    payload = ctx.body()
    session_id = ctx.require(payload, "session_id")
    if not isinstance(session_id, str):
        raise BadRequestError("'session_id' must be a string")
    info = ctx.manager.create(ctx.tenant, session_id)
    return info.to_wire()


def get_sessions(ctx: Context) -> dict[str, Any]:
    return {
        "sessions": [
            info.to_wire() for info in ctx.manager.sessions(ctx.tenant)
        ]
    }


def get_session(ctx: Context) -> dict[str, Any]:
    sid = ctx.params["sid"]
    with ctx.manager.acquire(ctx.tenant, sid) as session:
        return session_detail(session, ctx.manager.info(ctx.tenant, sid))


def delete_session(ctx: Context) -> dict[str, Any]:
    sid = ctx.params["sid"]
    if ctx.flag("purge"):
        ctx.manager.purge(ctx.tenant, sid)
        return {"session_id": sid, "purged": True}
    evicted = ctx.manager.evict(ctx.tenant, sid)
    return {"session_id": sid, "evicted": evicted}


def post_checkpoint(ctx: Context) -> dict[str, Any]:
    info = ctx.manager.checkpoint(ctx.tenant, ctx.params["sid"])
    return info.to_wire()


def get_recovery(ctx: Context) -> dict[str, Any]:
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        info = session.recovery_info()
        return {"recovery": info.to_wire() if info else None}


# -- schemas ---------------------------------------------------------------------


def post_schemas(ctx: Context) -> dict[str, Any]:
    payload = ctx.body()
    name = payload.get("name")
    ddl = payload.get("ddl")
    if ddl is None and name is None:
        raise BadRequestError("provide 'ddl' text and/or a schema 'name'")
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        if ddl is not None:
            if not isinstance(ddl, str):
                raise BadRequestError("'ddl' must be a string")
            schema = parse_ddl(ddl)
            if name is not None and name != schema.name:
                raise BadRequestError(
                    f"body says name {name!r} but the DDL defines "
                    f"{schema.name!r}"
                )
            session.adopt_schema(schema)
            added = schema.name
        else:
            session.add_schema(name)
            added = name
        return {"schema": added, "schemas": sorted(session.schemas)}


def get_schemas(ctx: Context) -> dict[str, Any]:
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        return {"schemas": sorted(session.schemas)}


def get_schema(ctx: Context) -> dict[str, Any]:
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        if ctx.params["name"] not in session.schemas:
            raise UnknownNameError("schema", ctx.params["name"])
        schema = session.schema(ctx.params["name"])
        return {
            "name": schema.name,
            "ddl": to_ddl(schema),
            "schema": schema_to_dict(schema),
        }


def delete_schema(ctx: Context) -> dict[str, Any]:
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        if ctx.params["name"] not in session.schemas:
            raise UnknownNameError("schema", ctx.params["name"])
        session.delete_schema(ctx.params["name"])
        return {"schemas": sorted(session.schemas)}


def post_schema_edits(ctx: Context) -> dict[str, Any]:
    """``POST /v1/sessions/{sid}/schemas/{name}/edits`` — typed evolution.

    The body's ``edit`` object is a :func:`repro.evolution.edit_from_payload`
    payload (``{"kind": "rename_attribute", ...}``).  The edit is applied
    through the session's incremental-repair pipeline; the reply carries
    the inverse edit, any retracted assertions, and the repair-scope
    summary ("recomputed 14/2,400 OCS cells, 2 clusters, 1 plan").  An
    edit that would orphan specified assertions is refused with a 409
    carrying the solver's minimal-conflict wire shape.
    """
    from repro.evolution import edit_from_payload

    payload = ctx.body()
    edit_payload = ctx.require(payload, "edit")
    edit = edit_from_payload(edit_payload)
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        if ctx.params["name"] not in session.schemas:
            raise UnknownNameError("schema", ctx.params["name"])
        outcome = session.apply_edit(ctx.params["name"], edit)
        wire = outcome.to_wire()
        wire["schema"] = ctx.params["name"]
        wire["state_fingerprint"] = head_fingerprint(session)
        return wire


# -- analysis: equivalences, candidates, assertions ------------------------------


def post_equivalences(ctx: Context) -> dict[str, Any]:
    payload = ctx.body()
    first = ctx.require(payload, "first")
    second = ctx.require(payload, "second")
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        issues = session.analysis.declare_equivalent(first, second)
        return {
            "first": first,
            "second": second,
            "issues": [str(issue) for issue in issues],
        }


def delete_equivalences(ctx: Context) -> dict[str, Any]:
    payload = ctx.body()
    ref = ctx.require(payload, "ref")
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        session.analysis.remove_from_class(ref)
        return {"ref": ref, "removed": True}


def get_candidates(ctx: Context) -> dict[str, Any]:
    query = ctx.request.query
    first = query.get("first")
    second = query.get("second")
    if not first or not second:
        raise BadRequestError(
            "candidates need 'first' and 'second' schema query parameters"
        )
    relationships = ctx.flag("relationships")
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        pairs = session.analysis.candidate_pairs(
            first, second, relationships=relationships
        )
        return {
            "candidates": [
                {
                    "first": str(pair.first),
                    "second": str(pair.second),
                    "equivalent_attributes": pair.equivalent_attributes,
                    "attribute_ratio": pair.attribute_ratio,
                }
                for pair in pairs
            ]
        }


def post_assertions(ctx: Context) -> dict[str, Any]:
    payload = ctx.body()
    first = ctx.require(payload, "first")
    second = ctx.require(payload, "second")
    kind = parse_kind(ctx.require(payload, "kind"))
    relationships = bool(payload.get("relationships", False))
    note = payload.get("note", "")
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        assertion = session.analysis.specify(
            first, second, kind, relationships=relationships, note=note
        )
        return assertion_wire(assertion, relationships)


def get_suggestions(ctx: Context) -> dict[str, Any]:
    """``GET /v1/sessions/{sid}/suggestions`` — ranked safe equivalences.

    Runs the solver's suggestion pass over two schemas: candidates are
    scored by resemblance and each is trial-propagated, so the client
    knows up front which one-keystroke confirmations cannot conflict.
    Read-only — confirming a suggestion is a normal POST to
    ``/assertions``.  The wire list is computed once per kernel head
    and query.
    """
    query = ctx.request.query
    first = query.get("first")
    second = query.get("second")
    if not first or not second:
        raise BadRequestError(
            "suggestions need 'first' and 'second' schema query parameters"
        )
    relationships = ctx.flag("relationships")
    limit = 10
    raw_limit = query.get("limit")
    if raw_limit is not None:
        try:
            limit = int(raw_limit)
        except ValueError:
            raise BadRequestError("'limit' must be an integer")
        if limit <= 0:
            raise BadRequestError("'limit' must be positive")
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        analysis = session.analysis

        def compute() -> list[dict[str, Any]]:
            return [
                suggestion.to_wire()
                for suggestion in analysis.suggest_assertions(
                    first, second, relationships=relationships, limit=limit
                )
            ]

        key = ("suggestions", first, second, relationships, limit)
        return {"suggestions": analysis.kernel.read_at_head(key, compute)}


def post_assertions_explain(ctx: Context) -> dict[str, Any]:
    """``POST /v1/sessions/{sid}/assertions/explain`` — what-if analysis.

    Same body as POST /assertions, but nothing is committed: the reply
    says whether the assertion would be accepted, the minimal conflict
    set when it would not, and the newly derived consequences when it
    would.  Always 200 — a conflicting hypothetical is an answer here,
    not an error.
    """
    payload = ctx.body()
    first = ctx.require(payload, "first")
    second = ctx.require(payload, "second")
    kind = parse_kind(ctx.require(payload, "kind"))
    relationships = bool(payload.get("relationships", False))
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        explanation = session.analysis.explain_assertion(
            first, second, kind, relationships=relationships
        )
        wire = explanation.to_wire()
        wire["relationships"] = relationships
        return wire


def delete_assertions(ctx: Context) -> dict[str, Any]:
    payload = ctx.body()
    first = ctx.require(payload, "first")
    second = ctx.require(payload, "second")
    relationships = bool(payload.get("relationships", False))
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        session.analysis.retract(
            first, second, relationships=relationships
        )
        return {"first": first, "second": second, "retracted": True}


# -- integration, queries, time travel -------------------------------------------


def post_integrate(ctx: Context) -> Any:
    payload = ctx.body()
    sid = ctx.params["sid"]
    first = ctx.require(payload, "first")
    second = ctx.require(payload, "second")
    result_name = payload.get("result_name", "integrated")
    if payload.get("mode", "sync") == "background":
        job = ctx.jobs.submit(
            ctx.tenant,
            "integrate",
            {
                "session_id": sid,
                "first": first,
                "second": second,
                "result_name": result_name,
            },
        )
        return _accepted(job)
    with ctx.manager.acquire(ctx.tenant, sid) as session:
        session.select_pair(first, second)
        result = session.integrate(result_name)
        return {
            "result_schema": result.schema.name,
            "summary": result.schema.summary(),
            "structures": len(result.nodes),
            "state_fingerprint": head_fingerprint(session),
        }


def post_replay(ctx: Context) -> Any:
    job = ctx.jobs.submit(
        ctx.tenant, "replay", {"session_id": ctx.params["sid"]}
    )
    return _accepted(job)


def post_query(ctx: Context) -> dict[str, Any]:
    payload = ctx.body()
    text = ctx.require(payload, "request")
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        return session.execute_global_request(text).to_wire()


def post_undo(ctx: Context) -> dict[str, Any]:
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        return {"status": session.undo()}


def post_redo(ctx: Context) -> dict[str, Any]:
    with ctx.manager.acquire(ctx.tenant, ctx.params["sid"]) as session:
        return {"status": session.redo()}


# -- replication ------------------------------------------------------------------


def _replication_plane(ctx: Context):
    plane = getattr(ctx.app, "replication", None)
    if plane is None:
        raise RouteNotFoundError(
            "replication is not configured on this service"
        )
    return plane


def _require_operator(ctx: Context) -> None:
    """Gate a replication control surface on the replication token.

    Tenant tokens never qualify: a tenant must not be able to fence a
    leader, trigger failover, or read another tenant's stream.  A node
    with no replication token configured refuses these outright.
    """
    if not ctx.operator:
        raise TenantAccessError(
            "this replication endpoint requires the node's configured "
            "replication token"
        )


def _require_stream_access(ctx: Context, tenant: str) -> None:
    """WAL/snapshot access: the operator, or the owning tenant itself."""
    if ctx.operator or ctx.tenant == tenant:
        return
    raise TenantAccessError(
        f"tenant {ctx.tenant!r} may not replicate sessions of {tenant!r}"
    )


def get_replication_status(ctx: Context) -> dict[str, Any]:
    """``GET /v1/replication/status`` — role, epoch, lag, followers.

    Followers poll this with a ``follower`` query id, which doubles as
    the heartbeat behind ``replication.followers_connected``.  Only
    replication-token holders count as followers; tenant tokens still
    read the status but cannot inflate the gauge.
    """
    plane = _replication_plane(ctx)
    if ctx.operator:
        plane.note_follower(ctx.request.query.get("follower"))
    status = plane.coordinator.status()
    lag = plane.lag_seconds()
    status["lag_seconds"] = (
        None if lag == float("inf") else round(lag, 3)
    )
    status["offset_behind"] = plane.offset_behind()
    status["followers_connected"] = plane.followers_connected()
    status["last_error"] = plane.last_error
    return status


def get_replication_sessions(ctx: Context) -> dict[str, Any]:
    """``GET /v1/replication/sessions`` — the leader's shipping inventory.

    The replication token sees every tenant's rows (that is what a
    follower replicates); a tenant token sees only its own.
    """
    plane = _replication_plane(ctx)
    inventory = getattr(ctx.manager, "replication_inventory", None)
    if inventory is None:
        raise NotLeaderError(plane.role, plane.coordinator.leader_url)
    rows = inventory()
    if ctx.operator:
        plane.note_follower(ctx.request.query.get("follower"))
    else:
        rows = [row for row in rows if row["tenant"] == ctx.tenant]
    return {"sessions": rows}


def get_replication_wal(ctx: Context) -> dict[str, Any]:
    """``GET /v1/replication/wal/{tenant}/{sid}`` — one shipment.

    Query ``generation``/``records`` carry the follower's cursor; the
    reply carries base64 wire frames in the on-disk WAL framing, so the
    follower re-verifies every CRC itself.  Requires the replication
    token, or a tenant token matching the path tenant.
    """
    plane = _replication_plane(ctx)
    tenant = ctx.params["tenant"]
    _require_stream_access(ctx, tenant)
    save_path = getattr(ctx.manager, "save_path", None)
    if save_path is None:
        raise NotLeaderError(plane.role, plane.coordinator.leader_url)
    if ctx.operator:
        plane.note_follower(ctx.request.query.get("follower"))
    sid = ctx.params["sid"]
    ctx.manager.require(tenant, sid)
    cursor = None
    generation = ctx.request.query.get("generation")
    if generation is not None:
        raw = ctx.request.query.get("records", "0")
        try:
            records = int(raw)
        except ValueError:
            raise BadRequestError("'records' must be an integer")
        cursor = ShipCursor(generation, records)
    shipment = WalShipper(Path(f"{save_path(tenant, sid)}.wal")).poll(
        cursor
    )
    frames = encode_frames(list(shipment.records))
    return {
        "generation": shipment.cursor.generation,
        "start": shipment.cursor.records - len(shipment.records),
        "records": len(shipment.records),
        "restarted": shipment.restarted,
        "damaged": shipment.damaged,
        "quarantined": list(shipment.quarantined),
        "frames": base64.b64encode(frames).decode("ascii"),
    }


def get_replication_snapshot(ctx: Context) -> dict[str, Any]:
    """``GET /v1/replication/snapshot/{tenant}/{sid}`` — full-state resync.

    Same access rule as the WAL endpoint: the replication token, or a
    tenant token matching the path tenant.
    """
    _replication_plane(ctx)
    tenant = ctx.params["tenant"]
    _require_stream_access(ctx, tenant)
    sid = ctx.params["sid"]
    with ctx.manager.acquire(tenant, sid) as session:
        kernel = session.analysis.kernel
        return {
            "state": kernel.export_state(),
            "offset": kernel.bus.offset,
            "fingerprint": state_fingerprint(session),
        }


def post_replication_promote(ctx: Context) -> dict[str, Any]:
    """``POST /v1/replication/promote`` — failover: follower takes over.

    Idempotent on a node that already leads; a fenced node refuses with
    the typed ``replication_fenced`` error.  Operator-only: promotion
    redirects every client's writes, so a tenant token must not be able
    to trigger it.
    """
    _require_operator(ctx)
    plane = _replication_plane(ctx)
    if plane.coordinator.role == "leader":
        status = plane.coordinator.status()
        status["materialized"] = []
        return status
    return plane.promote()


def post_replication_fence(ctx: Context) -> dict[str, Any]:
    """``POST /v1/replication/fence`` — present a higher epoch to a node.

    Operator-only: fencing is a durable write outage by design, so the
    epoch must come from a legitimate promotion exchange, not from any
    tenant guessing a large integer.
    """
    _require_operator(ctx)
    plane = _replication_plane(ctx)
    payload = ctx.body()
    epoch = ctx.require(payload, "epoch")
    if isinstance(epoch, bool) or not isinstance(epoch, int):
        raise BadRequestError("'epoch' must be an integer")
    leader_url = payload.get("leader_url")
    fenced_now = plane.coordinator.fence(epoch, leader_url=leader_url)
    status = plane.coordinator.status()
    status["fenced_now"] = fenced_now
    return status


# -- jobs ------------------------------------------------------------------------


class _Accepted(dict):
    """A handler result that overrides the route's success status."""

    status = 202


def _accepted(job) -> _Accepted:
    return _Accepted(job.to_wire())


def get_jobs(ctx: Context) -> dict[str, Any]:
    return {"jobs": [job.to_wire() for job in ctx.jobs.list(ctx.tenant)]}


def get_job(ctx: Context) -> dict[str, Any]:
    return ctx.jobs.get(ctx.tenant, ctx.params["jid"]).to_wire()


def delete_job(ctx: Context) -> dict[str, Any]:
    return ctx.jobs.cancel(ctx.tenant, ctx.params["jid"]).to_wire()


def build_router() -> Router:
    """The complete v1 route table."""
    router = Router()
    # meta
    router.add("GET", "/v1/healthz", get_healthz, auth=False)
    router.add("GET", "/v1/about", get_about, auth=False)
    router.add("GET", "/v1/stats", get_stats)
    # telemetry
    router.add("GET", "/v1/metrics", get_metrics, auth=False)
    router.add(
        "GET", "/v1/sessions/{sid}/events/stream", get_events_stream
    )
    router.add(
        "GET", "/v1/sessions/{sid}/spans/stream", get_spans_stream
    )
    # session lifecycle
    router.add("POST", "/v1/sessions", post_sessions, status=201)
    router.add("GET", "/v1/sessions", get_sessions)
    router.add("GET", "/v1/sessions/{sid}", get_session)
    router.add("DELETE", "/v1/sessions/{sid}", delete_session)
    router.add("POST", "/v1/sessions/{sid}/checkpoint", post_checkpoint)
    router.add("GET", "/v1/sessions/{sid}/recovery", get_recovery)
    # schemas
    router.add("POST", "/v1/sessions/{sid}/schemas", post_schemas, status=201)
    router.add("GET", "/v1/sessions/{sid}/schemas", get_schemas)
    router.add("GET", "/v1/sessions/{sid}/schemas/{name}", get_schema)
    router.add("DELETE", "/v1/sessions/{sid}/schemas/{name}", delete_schema)
    router.add(
        "POST",
        "/v1/sessions/{sid}/schemas/{name}/edits",
        post_schema_edits,
        status=201,
    )
    # analysis
    router.add(
        "POST", "/v1/sessions/{sid}/equivalences", post_equivalences,
        status=201,
    )
    router.add(
        "DELETE", "/v1/sessions/{sid}/equivalences", delete_equivalences
    )
    router.add("GET", "/v1/sessions/{sid}/candidates", get_candidates)
    router.add("GET", "/v1/sessions/{sid}/suggestions", get_suggestions)
    router.add(
        "POST",
        "/v1/sessions/{sid}/assertions/explain",
        post_assertions_explain,
    )
    router.add(
        "POST", "/v1/sessions/{sid}/assertions", post_assertions, status=201
    )
    router.add("DELETE", "/v1/sessions/{sid}/assertions", delete_assertions)
    # integration + operations
    router.add("POST", "/v1/sessions/{sid}/integrate", post_integrate)
    router.add("POST", "/v1/sessions/{sid}/replay", post_replay, status=202)
    router.add("POST", "/v1/sessions/{sid}/query", post_query)
    router.add("POST", "/v1/sessions/{sid}/undo", post_undo)
    router.add("POST", "/v1/sessions/{sid}/redo", post_redo)
    # replication plane: the configured replication token authenticates
    # as the operator; tenant tokens reach only their own stream (and
    # never the fence/promote controls)
    router.add(
        "GET", "/v1/replication/status", get_replication_status,
        auth="replication",
    )
    router.add(
        "GET", "/v1/replication/sessions", get_replication_sessions,
        auth="replication",
    )
    router.add(
        "GET", "/v1/replication/wal/{tenant}/{sid}", get_replication_wal,
        auth="replication",
    )
    router.add(
        "GET",
        "/v1/replication/snapshot/{tenant}/{sid}",
        get_replication_snapshot,
        auth="replication",
    )
    router.add(
        "POST", "/v1/replication/promote", post_replication_promote,
        auth="replication",
    )
    router.add(
        "POST", "/v1/replication/fence", post_replication_fence,
        auth="replication",
    )
    # jobs
    router.add("GET", "/v1/jobs", get_jobs)
    router.add("GET", "/v1/jobs/{jid}", get_job)
    router.add("DELETE", "/v1/jobs/{jid}", delete_job)
    return router


__all__ = [
    "Context",
    "Route",
    "Router",
    "build_router",
    "parse_kind",
]
