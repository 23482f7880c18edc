"""The service application: dispatch, error mapping, and the HTTP server.

:class:`ServiceApp` is the synchronous heart — ``dispatch(request)``
routes, authenticates, runs the handler, and maps any
:class:`~repro.errors.ReproError` to a response through the single
code → status table.  Tests drive it in-process without sockets.

Every dispatch is **request-correlated**: an ``X-Request-Id`` is accepted
from the client (or generated), bound to the handler thread, wrapped in a
``service.request`` tracer span, stamped on the response header, emitted
in the structured JSON access log, and — because kernel-bus taps and job
workers read the thread-bound id — carried by every kernel event and
span the request produces.  :class:`ServiceTelemetry` owns the metrics
registry behind ``GET /v1/metrics`` and the two SSE fan-out hubs behind
``/v1/sessions/{id}/events/stream`` and ``…/spans/stream``.

:class:`ServiceServer` wraps the app in a pure-stdlib HTTP/1.1 server
with one blocking thread per connection: the thread reads a request,
calls ``dispatch`` itself and writes the reply with one ``sendall``,
then waits on the same keep-alive connection for the next one.  There
is no event loop and no hand-off to a pool.  At most
``executor_workers`` requests are inside ``dispatch`` at once (a
semaphore).  A :class:`~repro.service.http.StreamingResponse` is
written chunk by chunk on its connection's thread, which then closes
the connection.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import socketserver
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    RollingLatency,
    StreamHub,
    accept_request_id,
    current_request_id,
    labeled,
    render_prometheus,
    set_request_id,
)
from repro.obs.trace import Span, Tracer, get_tracer, use_tracer
from repro.service.auth import TenantAuth
from repro.service.errors import MethodNotAllowedError, status_for
from repro.service.http import (
    Request,
    Response,
    StreamingResponse,
    read_request,
)
from repro.service.jobs import JobQueue
from repro.service.manager import SessionManager
from repro.service.routers import Context, Router, build_router

log = logging.getLogger("repro.service")

#: request-duration histogram bucket bounds, in seconds
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
    5.0, 10.0,
)


@dataclass
class _RequestInfo:
    """What dispatch learns about a request as routing/auth proceed."""

    request_id: str = ""
    route: str | None = None
    tenant: str | None = None
    session_id: str | None = None


class ServiceTelemetry:
    """The service's live telemetry plane: metrics, hubs, correlation.

    One instance per :class:`ServiceApp`.  It owns

    * the :class:`~repro.obs.metrics.MetricsRegistry` rendered at
      ``GET /v1/metrics`` (request counters, rolling latency quantiles,
      session-manager and job-queue gauges, federation breaker health,
      SSE delivery counters), and
    * the two :class:`~repro.obs.telemetry.StreamHub`\\ s fanning kernel
      events and tracer spans out to SSE subscribers, keyed by
      ``(tenant, session_id)``, with drop-oldest backpressure per
      subscriber.

    ``enabled=False`` turns the whole plane off (the benchmark's
    baseline): dispatch skips tracing, metrics and access logging.
    """

    def __init__(self, *, enabled: bool = True, ring_size: int = 256) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.latency = RollingLatency()
        self.events_hub = StreamHub(maxlen=ring_size)
        self.spans_hub = StreamHub(maxlen=ring_size)
        events_streamed = self.registry.counter(
            labeled("repro_sse_events_total", kind="events")
        )
        spans_streamed = self.registry.counter(
            labeled("repro_sse_events_total", kind="spans")
        )
        self.events_hub.on_publish = lambda key: events_streamed.inc()
        self.spans_hub.on_publish = lambda key: spans_streamed.inc()
        #: (method, route, status, tenant) -> (counter, histogram); avoids
        #: re-rendering label strings on every request
        self._request_series: dict[tuple, tuple] = {}
        #: live kernel-bus taps: (tenant, sid) -> [subscription, refcount]
        self._taps: dict[tuple[str, str], list[Any]] = {}
        self._tap_lock = threading.Lock()

    # -- request metrics ---------------------------------------------------------

    def observe_request(
        self,
        *,
        method: str,
        route: str,
        tenant: str | None,
        status: int,
        seconds: float,
    ) -> None:
        who = tenant or "-"
        series_key = (method, route, status, who)
        handles = self._request_series.get(series_key)
        if handles is None:
            # registry get-or-create is locked, so a racing duplicate
            # here still lands on the same underlying metric objects
            handles = self._request_series[series_key] = (
                self.registry.counter(
                    labeled(
                        "repro_http_requests_total",
                        method=method,
                        route=route,
                        status=status,
                        tenant=who,
                    )
                ),
                self.registry.histogram(
                    labeled(
                        "repro_http_request_duration_seconds",
                        route=route,
                        tenant=who,
                    ),
                    buckets=LATENCY_BUCKETS,
                ),
            )
        counter, histogram = handles
        counter.inc()
        histogram.observe(seconds)
        self.latency.observe((who, route), seconds)

    # -- streaming ---------------------------------------------------------------

    def publish_spans(
        self,
        key: tuple[str, str],
        spans: list[Span],
        request_id: str | None,
    ) -> None:
        """Fan finished spans out to the session's SSE subscribers.

        Publishes raw ``(span, request_id)`` pairs — serialisation is
        deferred to the spans endpoint's ``span_frame`` transform on
        the *consumer's* connection thread, so the request thread pays
        only the ring append.
        """
        if not spans or not self.spans_hub.watched(key):
            return
        rid = request_id or ""
        self.spans_hub.publish_many(key, [(span, rid) for span in spans])

    def span_sink(
        self, key: tuple[str, str], request_id: str | None
    ) -> "Callable[[Span], None]":
        """A tracer sink that streams each finished span *tree*.

        Spans buffer until their root (depth 0) closes, then the whole
        tree flushes as one burst — one consumer wake-up and one SSE
        chunk per request or job, not one per span.
        """
        buffer: list[Span] = []

        def sink(span: Span) -> None:
            buffer.append(span)
            if span.depth == 0 or len(buffer) >= 64:
                self.publish_spans(key, buffer, request_id)
                buffer.clear()

        return sink

    def publish_event(self, key: tuple[str, str], event: Any) -> None:
        """Fan one live kernel event out, stamped with the request id.

        Runs on the *publishing* thread — the request handler or job
        worker that committed the event — so the thread-bound request id
        is exactly the one that caused the mutation.
        """
        self.events_hub.publish(
            key,
            {
                "seq": event.offset,
                "txn": event.txn,
                "scope": event.scope,
                "action": event.action,
                "payload": event.payload,
                "request_id": current_request_id() or "",
            },
        )

    def attach_event_tap(self, key: tuple[str, str], bus: Any) -> None:
        """Ref-counted live-only bus tap feeding the events hub.

        The first subscriber for a session attaches the tap; later ones
        share it, so every SSE consumer sees each event exactly once.
        """
        with self._tap_lock:
            entry = self._taps.get(key)
            if entry is not None:
                entry[1] += 1
                return
            subscription = bus.subscribe(
                lambda event: self.publish_event(key, event),
                live_only=True,
            )
            self._taps[key] = [subscription, 1]

    def release_event_tap(self, key: tuple[str, str]) -> None:
        with self._tap_lock:
            entry = self._taps.get(key)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] <= 0:
                entry[0].cancel()
                del self._taps[key]

    # -- scrape-time collection --------------------------------------------------

    def _sync_counter(self, series: str, value: int) -> None:
        """Advance a registry counter to an externally tracked total."""
        counter = self.registry.counter(series)
        if value > counter.value:
            counter.inc(value - counter.value)

    def collect(self, app: "ServiceApp") -> None:
        """Refresh point-in-time gauges just before rendering a scrape."""
        gauge = self.registry.gauge
        stats = app.manager.stats()
        gauge("repro_sessions_resident").set(stats.resident_sessions)
        gauge("repro_sessions_known").set(stats.known_sessions)
        gauge("repro_sessions_resident_bytes").set(stats.resident_bytes)
        gauge("repro_sessions_max_resident").set(stats.max_resident)
        self._sync_counter(
            "repro_sessions_evictions_total", stats.evictions
        )
        self._sync_counter(
            "repro_sessions_rehydrations_total", stats.rehydrations
        )
        job_stats = app.jobs.stats()
        gauge("repro_jobs_queue_depth").set(job_stats.pop("queue_depth"))
        for state, count in job_stats.items():
            gauge(labeled("repro_jobs", state=state)).set(count)
        for kind, hub in (
            ("events", self.events_hub),
            ("spans", self.spans_hub),
        ):
            gauge(labeled("repro_sse_subscribers", kind=kind)).set(
                hub.subscriber_count()
            )
            self._sync_counter(
                labeled("repro_sse_dropped_total", kind=kind),
                hub.dropped_total(),
            )
        for entry in app.manager.federation_snapshot():
            for component, state in entry["breakers"].items():
                gauge(
                    labeled(
                        "repro_federation_breaker_state",
                        tenant=entry["tenant"],
                        session=entry["session_id"],
                        component=component,
                    )
                ).set(state)
            self._sync_counter(
                labeled(
                    "repro_federation_retries_total",
                    tenant=entry["tenant"],
                    session=entry["session_id"],
                ),
                entry["retries"],
            )
        plane = getattr(app, "replication", None)
        if plane is not None:
            lag = plane.lag_seconds()
            if lag == float("inf"):
                # not yet bootstrapped: report the lag bound's ceiling
                # rather than an unrepresentable infinity
                lag = plane.max_lag_s
            gauge("replication.lag_seconds").set(round(lag, 3))
            gauge("replication.offset_behind").set(plane.offset_behind())
            gauge("replication.followers_connected").set(
                plane.followers_connected()
            )
        for key in self.latency.keys():
            tenant, route = key
            quantiles = self.latency.quantiles(key)
            if not quantiles:
                continue
            for quantile, seconds in quantiles.items():
                gauge(
                    labeled(
                        "repro_http_request_latency_seconds",
                        route=route,
                        tenant=tenant,
                        quantile=f"{quantile:g}",
                    )
                ).set(round(seconds, 6))

    def render(self, app: "ServiceApp") -> str:
        """Collect gauges and render the Prometheus exposition text."""
        self.collect(app)
        return render_prometheus(self.registry)


class ServiceApp:
    """Routes + auth + session manager + job queue, behind one dispatch."""

    def __init__(
        self,
        root: str | Path,
        *,
        auth: TenantAuth | None = None,
        manager: SessionManager | None = None,
        router: Router | None = None,
        max_resident: int = 8,
        max_resident_bytes: int | None = None,
        job_workers: int = 1,
        telemetry: bool = True,
        replica_of: str | None = None,
        replication_token: str | None = None,
        replication_link: Any | None = None,
        max_lag_s: float = 2.0,
        replication_poll_s: float = 0.25,
        replication_autostart: bool = True,
    ) -> None:
        self.auth = auth or TenantAuth()
        self.manager = manager or SessionManager(
            root,
            max_resident=max_resident,
            max_resident_bytes=max_resident_bytes,
        )
        self.router = router or build_router()
        self.telemetry = ServiceTelemetry(enabled=telemetry)
        self.jobs = JobQueue(
            self.manager,
            workers=job_workers,
            telemetry=self.telemetry if telemetry else None,
        )
        # the replication plane always exists: on a plain leader it is a
        # cheap role check per write, and loading any persisted
        # replication.json is what keeps a fenced ex-leader fenced
        # across restarts.  ``replica_of`` (or an injected link, for
        # socketless tests) turns the node into a follower: the manager
        # is swapped for the read-only replica view and the pump starts.
        from repro.service.replication import ReplicationPlane

        self.replication = ReplicationPlane.attach(
            self,
            Path(root),
            replica_of=replica_of,
            token=replication_token,
            link=replication_link,
            max_lag_s=max_lag_s,
            poll_s=replication_poll_s,
            autostart=replication_autostart,
        )

    def close(self) -> None:
        """Stop workers and checkpoint every resident session."""
        self.replication.stop()
        self.jobs.stop()
        self.manager.shutdown()

    # -- the one place requests become responses ---------------------------------

    def _spans_watched(self, path: str) -> bool:
        """Does some spans-stream subscriber care about this request?

        A pre-routing check: watchers key on ``(tenant, sid)``, and only
        ``/v1/sessions/{sid}/…`` requests can touch a session, so the
        sid is read straight off the path.  A sid collision across
        tenants merely traces a request whose spans then fail the
        per-key ``watched`` check at publish — wasted work, never a
        cross-tenant leak.
        """
        hub = self.telemetry.spans_hub
        if not hub.any_watched():
            return False
        if not path.startswith("/v1/sessions/"):
            return False
        sid = path[13:].partition("/")[0]
        return any(key[1] == sid for key in hub.watched_keys())

    def dispatch(self, request: Request) -> Response | StreamingResponse:
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self._handle(request, _RequestInfo())
        started = time.perf_counter()
        request_id = accept_request_id(request.headers.get("x-request-id"))
        info = _RequestInfo(request_id=request_id)
        set_request_id(request_id)
        try:
            # tracing on demand: spans only exist to be streamed live, so
            # the tracer is installed only while somebody is consuming a
            # spans stream *for the session this request targets* —
            # every other request keeps span() a no-op
            if self._spans_watched(request.path):
                tracer = Tracer()
                with use_tracer(tracer):
                    with tracer.span(
                        "service.request",
                        request_id=request_id,
                        method=request.method,
                        path=request.path,
                    ) as root:
                        response = self._handle(request, info)
                        root.attrs["status"] = response.status
                        if info.route is not None:
                            root.attrs["route"] = info.route
                        if info.tenant is not None:
                            root.attrs["tenant"] = info.tenant
            else:
                response = self._handle(request, info)
        finally:
            set_request_id(None)
        elapsed = time.perf_counter() - started
        route = info.route or "(unmatched)"
        telemetry.observe_request(
            method=request.method,
            route=route,
            tenant=info.tenant,
            status=response.status,
            seconds=elapsed,
        )
        self._access_log(request, response, info, elapsed)
        response.headers.setdefault("x-request-id", request_id)
        return response

    def _handle(
        self, request: Request, info: _RequestInfo
    ) -> Response | StreamingResponse:
        try:
            route, params = self.router.match(request.method, request.path)
            info.route = route.pattern
            context = Context(
                app=self,
                request=request,
                params=params,
                request_id=info.request_id,
            )
            if route.auth:
                # replication-plane routes accept the node's configured
                # replication token as an operator credential; anything
                # else falls through to ordinary tenant authentication
                token = request.auth_token
                if (
                    route.auth == "replication"
                    and token is not None
                    and self.replication.is_operator_token(token)
                ):
                    context.operator = True
                else:
                    context.tenant = self.auth.authenticate(request)
                    info.tenant = context.tenant
            self.replication.enforce(route, context)
            sid = params.get("sid")
            if sid is not None:
                info.session_id = sid
                if self.telemetry.enabled and context.tenant is not None:
                    key = (context.tenant, sid)
                    request_id = info.request_id
                    tracer = get_tracer()
                    if tracer is not None:
                        tracer.add_sink(
                            self.telemetry.span_sink(key, request_id)
                        )
            payload = route.handler(context)
            if isinstance(payload, (Response, StreamingResponse)):
                return payload
            status = getattr(payload, "status", route.status)
            return Response.json(payload, status=status)
        except MethodNotAllowedError as exc:
            response = Response.json({"error": exc.to_wire()}, status=405)
            response.headers["allow"] = ", ".join(sorted(exc.allowed))
            return response
        except ReproError as exc:
            response = Response.json(
                {"error": exc.to_wire()}, status=status_for(exc)
            )
            retry_after = getattr(exc, "retry_after", None)
            if retry_after is not None:
                # degradation contract: a lagging replica tells clients
                # when a retry is worth it instead of failing opaquely
                response.headers["retry-after"] = str(
                    max(1, math.ceil(float(retry_after)))
                )
            return response
        except Exception as exc:  # noqa: BLE001 - the service must answer
            log.error(
                "unhandled error on %s %s\n%s",
                request.method,
                request.path,
                traceback.format_exc(),
            )
            return Response.json(
                {
                    "error": {
                        "code": "internal_error",
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                },
                status=500,
            )

    def _access_log(
        self,
        request: Request,
        response: Response | StreamingResponse,
        info: _RequestInfo,
        elapsed: float,
    ) -> None:
        """One structured JSON line per request on the service logger."""
        if not log.isEnabledFor(logging.INFO):
            return
        body = getattr(response, "body", b"")
        record = {
            "event": "request",
            "request_id": info.request_id,
            "method": request.method,
            "path": request.path,
            "route": info.route,
            "status": response.status,
            "tenant": info.tenant,
            "session_id": info.session_id,
            "duration_ms": round(elapsed * 1000, 3),
            "bytes": len(body),
            "streaming": isinstance(response, StreamingResponse),
        }
        log.info(json.dumps(record, sort_keys=True))


#: how long a stopping server waits for in-flight dispatches, in seconds
STOP_GRACE_S = 10.0


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: read a request, dispatch, reply, repeat."""

    # without TCP_NODELAY, Nagle's algorithm holds a small reply back
    # until the client's delayed ACK arrives
    disable_nagle_algorithm = True
    # bound once, here: the loop never looks ``read_request`` up in the
    # module globals, so a wrapper installed there later (perfbench's
    # traced mode installs a coroutine) leaves the server as it is
    read_request = staticmethod(read_request)

    def handle(self) -> None:
        server: ServiceServer = self.server  # type: ignore[assignment]
        sock = self.connection
        try:
            while True:
                try:
                    request = self.read_request(self.rfile)
                except ReproError as exc:
                    sock.sendall(
                        Response.json(
                            {"error": exc.to_wire()}, status=status_for(exc)
                        ).encode(close=True)
                    )
                    return
                if request is None:
                    return
                response = server.dispatch(request)
                if response is None:
                    return  # the server is stopping
                if isinstance(response, StreamingResponse):
                    try:
                        sock.sendall(response.encode_head())
                        for chunk in response.chunks:
                            sock.sendall(chunk)
                    finally:
                        response.close()  # unsubscribe, unpin
                    return  # streams always close the connection
                keep_alive = request.keep_alive
                sock.sendall(response.encode(close=not keep_alive))
                if not keep_alive:
                    return
        except OSError:
            pass  # the client went away, or the server shut the socket


class ServiceServer(socketserver.ThreadingTCPServer):
    """The ``/v1`` HTTP/1.1 server: one blocking thread per connection.

    Binds and listens on construction; :meth:`serve_forever` accepts.
    At most ``executor_workers`` requests run inside ``app.dispatch`` at
    once, so per-tenant residency behaves as it does under a bounded
    worker pool.  :meth:`stop` ends serving; it does not close the app.
    """

    daemon_threads = True
    allow_reuse_address = True
    request_queue_size = 100

    def __init__(
        self,
        app: ServiceApp,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        executor_workers: int = 8,
    ) -> None:
        self.app = app
        self._workers = executor_workers
        self._slots = threading.BoundedSemaphore(executor_workers)
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        self._closing = False
        super().__init__((host, port), _Connection)
        log.info("repro service listening on %s:%d", *self.server_address)

    @property
    def port(self) -> int:
        return self.server_address[1]

    def dispatch(
        self, request: Request
    ) -> Response | StreamingResponse | None:
        """``app.dispatch`` inside a slot; ``None`` once stopping."""
        with self._slots:
            if self._closing:
                return None
            return self.app.dispatch(request)

    def process_request(self, request, client_address) -> None:
        with self._open_lock:
            accepted = not self._closing
            if accepted:
                self._open.add(request)
        if accepted:
            super().process_request(request, client_address)
        else:
            self.shutdown_request(request)

    def shutdown_request(self, request) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def _shut_open(self, how: int) -> None:
        with self._open_lock:
            sockets = list(self._open)
        for sock in sockets:
            try:
                sock.shutdown(how)
            except OSError:
                pass

    def stop(self) -> None:
        """Stop accepting, end idle connections, drain dispatches.

        Idle keep-alive reads see EOF at once; a request already inside
        ``dispatch`` gets up to :data:`STOP_GRACE_S` seconds to finish
        and write its reply.  Streams are cut after that.
        """
        with self._open_lock:
            self._closing = True
        self.shutdown()
        self.server_close()
        self._shut_open(socket.SHUT_RD)
        deadline = time.monotonic() + STOP_GRACE_S
        drained = 0
        while drained < self._workers and self._slots.acquire(
            timeout=max(0.0, deadline - time.monotonic())
        ):
            drained += 1
        if drained < self._workers:
            log.warning(
                "stopping with %d dispatch(es) still running",
                self._workers - drained,
            )
        for _ in range(drained):
            self._slots.release()
        self._shut_open(socket.SHUT_RDWR)


def serve(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    executor_workers: int = 8,
) -> ServiceServer:
    """Start serving on a background thread; ``stop()`` the result.

    ``port=0`` picks a free port (read it back from ``.port``).
    """
    server = ServiceServer(
        app, host, port, executor_workers=executor_workers
    )
    threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="repro-service-accept",
        daemon=True,
    ).start()
    return server


def run(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 8080
) -> None:
    """Blocking entry point: serve until SIGINT, then stop and close.

    Stopping ends idle connections, waits up to :data:`STOP_GRACE_S`
    for in-flight dispatches, and then checkpoints every resident
    session through ``app.close()``.
    """
    server = None
    try:
        server = ServiceServer(app, host, port)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if server is not None:
            server.stop()
        app.close()


def app_from_config(path: str | Path) -> tuple[ServiceApp, str, int]:
    """Build an app from a JSON config file.

    ::

        {
          "root": "var/service",
          "host": "127.0.0.1",
          "port": 8080,
          "max_resident": 8,
          "max_resident_bytes": null,
          "telemetry": true,
          "tenants": {"token-string": "tenant-name"},
          "replica_of": null,
          "replication_token": null,
          "max_lag_s": 2.0,
          "replication_poll_s": 0.25
        }

    ``replication_token`` is the shared replication-plane secret: a
    replica presents it to its leader, and every node requires it for
    the ``/v1/replication`` control surfaces (fence, promote) and for
    cross-tenant WAL/snapshot fetches.
    """
    config: dict[str, Any] = json.loads(Path(path).read_text("utf-8"))
    auth = TenantAuth.from_tokens(config.get("tenants", {}))
    app = ServiceApp(
        config.get("root", "var/service"),
        auth=auth,
        max_resident=config.get("max_resident", 8),
        max_resident_bytes=config.get("max_resident_bytes"),
        job_workers=config.get("job_workers", 1),
        telemetry=bool(config.get("telemetry", True)),
        replica_of=config.get("replica_of"),
        replication_token=config.get("replication_token"),
        max_lag_s=float(config.get("max_lag_s", 2.0)),
        replication_poll_s=float(config.get("replication_poll_s", 0.25)),
    )
    return app, config.get("host", "127.0.0.1"), int(config.get("port", 8080))


__all__ = [
    "ServiceApp",
    "ServiceServer",
    "ServiceTelemetry",
    "app_from_config",
    "run",
    "serve",
]
