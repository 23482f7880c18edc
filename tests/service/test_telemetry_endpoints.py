"""The telemetry plane end to end: /v1/metrics, SSE streams, correlation.

The acceptance property: one ``X-Request-Id`` observably joins all three
signals — the structured access-log line, the tracer span tree streamed
over ``/v1/sessions/{sid}/spans/stream``, and the kernel events streamed
over ``/v1/sessions/{sid}/events/stream``.
"""

from __future__ import annotations

import json
import logging
import threading

from repro.obs.telemetry import PROMETHEUS_CONTENT_TYPE, parse_prometheus
from repro.service import Request, ServiceApp, StreamingResponse


def raw(app, method, path, *, token="token-acme", headers=None,
        body=None, query=None):
    """Dispatch one request and return the raw response object."""
    all_headers = dict(headers or {})
    if token is not None:
        all_headers["authorization"] = f"Bearer {token}"
    return app.dispatch(
        Request(
            method=method,
            path=path,
            query=query or {},
            headers=all_headers,
            body=(
                json.dumps(body).encode("utf-8")
                if body is not None
                else b""
            ),
        )
    )


def parse_sse(chunks):
    """SSE bytes -> list of {id?, event?, data} frames (comments skipped)."""
    frames = []
    for block in b"".join(chunks).decode("utf-8").split("\n\n"):
        block = block.strip()
        if not block or block.startswith(":"):
            continue
        frame = {}
        for line in block.splitlines():
            key, _, value = line.partition(": ")
            frame[key] = value
        if "data" in frame:
            frame["data"] = json.loads(frame["data"])
        frames.append(frame)
    return frames


class Collector:
    """Consumes a StreamingResponse's chunks on a background thread."""

    def __init__(self, response: StreamingResponse):
        assert isinstance(response, StreamingResponse)
        self.chunks: list[bytes] = []
        self._thread = threading.Thread(
            target=lambda: self.chunks.extend(response.chunks)
        )
        self._thread.start()

    def frames(self, timeout=15.0):
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "stream did not terminate"
        return parse_sse(self.chunks)


# -- /v1/metrics ------------------------------------------------------------------


def test_metrics_endpoint_emits_valid_prometheus_text(seeded, app):
    seeded.get("/v1/stats")
    seeded.get("/v1/sessions")
    response = raw(app, "GET", "/v1/metrics", token=None)
    assert response.status == 200
    assert response.headers["content-type"] == PROMETHEUS_CONTENT_TYPE
    samples = parse_prometheus(response.body.decode("utf-8"))

    def series(name, **labels):
        inner = ",".join(
            f'{key}="{value}"' for key, value in sorted(labels.items())
        )
        return f"{name}{{{inner}}}" if inner else name

    assert (
        samples[
            series(
                "repro_http_requests_total",
                method="GET",
                route="/v1/stats",
                status="200",
                tenant="acme",
            )
        ]
        >= 1
    )
    # session-manager gauges reflect the seeded resident session
    assert samples["repro_sessions_resident"] >= 1
    assert samples["repro_sessions_resident_bytes"] > 0
    assert samples["repro_sessions_known"] >= 1
    # rolling latency quantiles appear per tenant/route
    assert (
        series(
            "repro_http_request_latency_seconds",
            quantile="0.5",
            route="/v1/stats",
            tenant="acme",
        )
        in samples
    )
    # job-state gauges are always present once scraped
    assert series("repro_jobs", state="queued") in samples
    assert samples["repro_jobs_queue_depth"] >= 0
    # duration histogram: cumulative buckets parse and count matches
    count_series = series(
        "repro_http_request_duration_seconds_count",
        route="/v1/stats",
        tenant="acme",
    )
    assert samples[count_series] >= 1


def test_metrics_counts_unauthenticated_and_unmatched_requests(app):
    raw(app, "GET", "/v1/healthz", token=None)
    raw(app, "GET", "/v1/nowhere", token=None)
    response = raw(app, "GET", "/v1/metrics", token=None)
    samples = parse_prometheus(response.body.decode("utf-8"))
    assert (
        samples[
            'repro_http_requests_total{method="GET",route="/v1/healthz"'
            ',status="200",tenant="-"}'
        ]
        >= 1
    )
    assert (
        samples[
            'repro_http_requests_total{method="GET",route="(unmatched)"'
            ',status="404",tenant="-"}'
        ]
        >= 1
    )


# -- request ids ------------------------------------------------------------------


def test_request_id_is_generated_and_echoed(app):
    response = raw(app, "GET", "/v1/healthz", token=None)
    generated = response.headers["x-request-id"]
    assert generated.startswith("req-")
    echoed = raw(
        app,
        "GET",
        "/v1/healthz",
        token=None,
        headers={"x-request-id": "my-trace-01"},
    )
    assert echoed.headers["x-request-id"] == "my-trace-01"
    # malformed ids are replaced, never reflected back verbatim
    replaced = raw(
        app,
        "GET",
        "/v1/healthz",
        token=None,
        headers={"x-request-id": "bad id\nwith newline"},
    )
    assert replaced.headers["x-request-id"].startswith("req-")


def test_disabled_telemetry_serves_requests_without_the_plane(tmp_path):
    from repro.service import TenantAuth

    app = ServiceApp(
        tmp_path / "svc",
        auth=TenantAuth.from_tokens({"token-acme": "acme"}),
        telemetry=False,
    )
    try:
        response = raw(app, "GET", "/v1/healthz", token=None)
        assert response.status == 200
        assert "x-request-id" not in response.headers
        assert raw(app, "GET", "/v1/metrics", token=None).status == 404
        assert (
            raw(
                app,
                "GET",
                "/v1/sessions/s1/events/stream",
            ).status
            == 404
        )
    finally:
        app.close()


# -- SSE tenant isolation ---------------------------------------------------------


def test_streams_404_for_foreign_and_missing_sessions(seeded, app):
    for path in (
        "/v1/sessions/s1/events/stream",
        "/v1/sessions/s1/spans/stream",
    ):
        foreign = raw(app, "GET", path, token="token-beta")
        assert foreign.status == 404
        missing = raw(
            app, "GET", path.replace("/s1/", "/ghost/"),
            token="token-acme",
        )
        assert missing.status == 404
    # failed subscriptions must not leak hub entries or pins
    assert app.telemetry.events_hub.subscriber_count() == 0
    assert app.telemetry.spans_hub.subscriber_count() == 0
    evicted = raw(app, "DELETE", "/v1/sessions/s1")
    assert evicted.status == 200  # nothing pinned it


def test_stream_query_parameters_are_validated(seeded, app):
    for query in (
        {"max_events": "zero"},
        {"max_events": "0"},
        {"timeout_s": "-1"},
        {"idle_s": "soon"},
    ):
        response = raw(
            app, "GET", "/v1/sessions/s1/events/stream", query=query
        )
        assert response.status == 400
    assert app.telemetry.events_hub.subscriber_count() == 0


def test_open_events_stream_pins_the_session(seeded, app):
    response = raw(
        app,
        "GET",
        "/v1/sessions/s1/events/stream",
        query={"max_events": "1", "timeout_s": "10"},
    )
    collector = Collector(response)
    try:
        busy = raw(app, "DELETE", "/v1/sessions/s1")
        assert busy.status == 409  # pinned while streaming
    finally:
        seeded.post(
            "/v1/sessions/s1/equivalences",
            {
                "first": "sc1.Student.GPA",
                "second": "sc2.Grad_student.Advisor",
            },
        )
        collector.frames()
    evicted = raw(app, "DELETE", "/v1/sessions/s1")
    assert evicted.status == 200
    assert app.telemetry.events_hub.subscriber_count() == 0


def test_events_stream_closed_before_its_first_chunk_unpins(seeded, app):
    # the server closes a stream whose head it could not write
    response = raw(app, "GET", "/v1/sessions/s1/events/stream")
    assert isinstance(response, StreamingResponse)
    response.close()
    assert app.telemetry.events_hub.subscriber_count() == 0
    assert app.telemetry._taps == {}
    evicted = raw(app, "DELETE", "/v1/sessions/s1")
    assert evicted.status == 200  # the pin went with the stream


# -- the acceptance property ------------------------------------------------------


def test_one_request_id_joins_access_log_spans_and_events(
    seeded, app, caplog
):
    rid = "req-jointest0001"
    events = Collector(
        raw(
            app,
            "GET",
            "/v1/sessions/s1/events/stream",
            query={"idle_s": "1.0", "timeout_s": "15"},
        )
    )
    spans = Collector(
        raw(
            app,
            "GET",
            "/v1/sessions/s1/spans/stream",
            query={"idle_s": "1.0", "timeout_s": "15"},
        )
    )
    with caplog.at_level(logging.INFO, logger="repro.service"):
        response = raw(
            app,
            "POST",
            "/v1/sessions/s1/equivalences",
            headers={"x-request-id": rid},
            body={
                "first": "sc1.Student.GPA",
                "second": "sc2.Grad_student.Advisor",
            },
        )
    assert response.status == 201
    assert response.headers["x-request-id"] == rid

    # 1) the structured access-log line carries the id
    access = [
        json.loads(record.message)
        for record in caplog.records
        if record.name == "repro.service"
        and record.message.startswith("{")
    ]
    mine = [line for line in access if line["request_id"] == rid]
    assert mine, f"no access-log line for {rid}: {access}"
    assert mine[0]["route"] == "/v1/sessions/{sid}/equivalences"
    assert mine[0]["status"] == 201
    assert mine[0]["tenant"] == "acme"

    # 2) the span tree streamed over SSE carries the id
    span_frames = [
        frame["data"]
        for frame in spans.frames()
        if frame.get("event") == "span"
    ]
    correlated = [
        frame for frame in span_frames if frame["request_id"] == rid
    ]
    assert correlated, f"no spans for {rid}: {span_frames}"
    names = {frame["name"] for frame in correlated}
    assert "service.request" in names  # the dispatch root span

    # 3) the kernel events streamed over SSE carry the id
    event_frames = [
        frame["data"]
        for frame in events.frames()
        if frame.get("event") == "kernel-event"
    ]
    mine = [
        frame for frame in event_frames if frame["request_id"] == rid
    ]
    assert mine, f"no kernel events for {rid}: {event_frames}"
    assert all("scope" in frame and "action" in frame for frame in mine)
    # SSE ids are the kernel offsets: monotonic
    offsets = [frame["seq"] for frame in mine]
    assert offsets == sorted(offsets)


def test_background_job_inherits_the_submitting_request_id(seeded, app):
    rid = "req-jobcorr0001"
    spans = Collector(
        raw(
            app,
            "GET",
            "/v1/sessions/s1/spans/stream",
            query={"idle_s": "1.5", "timeout_s": "30"},
        )
    )
    submitted = raw(
        app,
        "POST",
        "/v1/sessions/s1/integrate",
        headers={"x-request-id": rid},
        body={"first": "sc1", "second": "sc2", "mode": "background"},
    )
    assert submitted.status == 202
    job_wire = json.loads(submitted.body)
    assert job_wire["request_id"] == rid
    job = app.jobs.wait("acme", job_wire["job_id"], timeout=30)
    assert job.state == "succeeded"
    span_frames = [
        frame["data"]
        for frame in spans.frames(timeout=30)
        if frame.get("event") == "span"
    ]
    job_spans = [
        frame for frame in span_frames if frame["request_id"] == rid
    ]
    names = {frame["name"] for frame in job_spans}
    # the submit request's root span and the job's own spans both joined
    assert "service.request" in names
    assert "service.job.integrate" in names
    assert any(name.startswith("phase") for name in names) or any(
        "integrate" in name for name in names
    )


def test_span_stream_reports_drops_under_backpressure(seeded, app):
    # a tiny ring forces drop-oldest under a burst
    app.telemetry.spans_hub.maxlen = 4
    spans = Collector(
        raw(
            app,
            "GET",
            "/v1/sessions/s1/spans/stream",
            query={"idle_s": "1.0", "timeout_s": "15"},
        )
    )
    # burst: each request publishes several spans before the consumer
    # thread can drain its ring
    for _ in range(10):
        seeded.get("/v1/sessions/s1")
    frames = spans.frames()
    end = [frame for frame in frames if frame.get("event") == "end"]
    assert end, "missing terminal end frame"
    summary = end[0]["data"]
    assert summary["sent"] >= 1
    assert summary["dropped"] >= 0  # counter is wired into the end frame
