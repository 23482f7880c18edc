"""Telemetry smoke gate: a real server, a real scrape, two live streams.

Boots the service on an ephemeral port, then:

1. scrapes ``GET /v1/metrics`` and strictly parses the Prometheus text
   exposition (malformed output fails the gate);
2. seeds a session with the paper's sc1/sc2 schemas and correlates one
   ``X-Request-Id`` through a background integration job while consuming
   **both** SSE streams (``…/events/stream`` and ``…/spans/stream``) to
   completion over real sockets;
3. fails on zero streamed spans, zero streamed kernel events, a lost
   request id, or a second scrape that does not parse / does not show
   the request traffic.

Results are recorded under the ``telemetry_smoke`` key of
``BENCH_obs.json``.

Run: PYTHONPATH=src python benchmarks/telemetry_smoke.py
"""

from __future__ import annotations

import json
import tempfile
import time

import harness
from harness import Gates, HttpClient, Service, SseStream
from repro.ecr.ddl import to_ddl
from repro.obs.telemetry import parse_prometheus
from repro.workloads.university import build_sc1, build_sc2

OUTPUT = harness.REPO_ROOT / "BENCH_obs.json"
TOKEN = "smoke-token"
REQUEST_ID = "req-telemetry-smoke"


def scrape(port: int, which: str) -> dict:
    """One strictly parsed ``/v1/metrics`` scrape (no auth needed)."""
    scraper = HttpClient(port)
    status, body = scraper.request("GET", "/v1/metrics")
    scraper.close()
    if status != 200:
        raise SystemExit(
            f"telemetry-smoke FAILED: /v1/metrics answered {status}"
        )
    try:
        return parse_prometheus(body.decode("utf-8"))
    except ValueError as exc:
        raise SystemExit(
            f"telemetry-smoke FAILED: {which} scrape is malformed: {exc}"
        ) from exc


def total(series: dict, family: str) -> float:
    return sum(
        value
        for name, value in series.items()
        if name.startswith(family + "{")
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as root:
        with Service(root, {TOKEN: "smoke"}) as server:
            return run(server.port)


def run(port: int) -> int:
    # 1) first scrape: must be valid exposition text
    first_scrape = scrape(port, "first")

    # 2) seed a session with the paper schemas + the canonical DDA calls
    client = HttpClient(port, TOKEN)
    steps = [
        ("/v1/sessions", {"session_id": "s1"}),
        ("/v1/sessions/s1/schemas", {"ddl": to_ddl(build_sc1())}),
        ("/v1/sessions/s1/schemas", {"ddl": to_ddl(build_sc2())}),
        (
            "/v1/sessions/s1/equivalences",
            {"first": "sc1.Student.Name", "second": "sc2.Grad_student.Name"},
        ),
        (
            "/v1/sessions/s1/equivalences",
            {"first": "sc1.Department.Name", "second": "sc2.Department.Name"},
        ),
        (
            "/v1/sessions/s1/assertions",
            {
                "first": "sc1.Department",
                "second": "sc2.Department",
                "kind": "EQUALS",
            },
        ),
        (
            "/v1/sessions/s1/assertions",
            {
                "first": "sc1.Student",
                "second": "sc2.Grad_student",
                "kind": "CONTAINS",
            },
        ),
    ]
    for path, payload in steps:
        status, body = client.request("POST", path, payload)
        if status >= 400:
            raise SystemExit(
                f"telemetry-smoke FAILED: POST {path} answered "
                f"{status}: {body!r}"
            )

    # 3) open both streams, then drive one background integration
    events, spans = (
        SseStream(
            port,
            f"/v1/sessions/s1/{kind}/stream?idle_s=3&timeout_s=90",
            TOKEN,
        )
        for kind in ("events", "spans")
    )
    status, body = client.request(
        "POST",
        "/v1/sessions/s1/integrate",
        {"first": "sc1", "second": "sc2", "mode": "background"},
        headers={"x-request-id": REQUEST_ID},
    )
    job = json.loads(body)
    if status != 202:
        raise SystemExit(
            "telemetry-smoke FAILED: background integrate answered "
            f"{status}: {job!r}"
        )
    deadline = time.monotonic() + 60
    while True:
        _, body = client.request("GET", f"/v1/jobs/{job['job_id']}")
        state = json.loads(body)
        if state["state"] in ("succeeded", "failed", "cancelled"):
            break
        if time.monotonic() > deadline:
            raise SystemExit(
                "telemetry-smoke FAILED: integration never finished"
            )
        time.sleep(0.1)
    client.close()

    # 4) both streams must have carried real, correlated traffic
    event_frames = [
        frame["data"]
        for frame in events.frames()
        if frame.get("event") == "kernel-event"
    ]
    span_frames = [
        frame["data"]
        for frame in spans.frames()
        if frame.get("event") == "span"
    ]
    correlated_events = [
        frame for frame in event_frames if frame["request_id"] == REQUEST_ID
    ]
    correlated_spans = [
        frame for frame in span_frames if frame["request_id"] == REQUEST_ID
    ]

    # 5) second scrape: still valid, and the traffic is visible
    second_scrape = scrape(port, "second")
    gates = Gates()
    gates.equal("integration_state", state["state"], "succeeded")
    gates.equal("job_request_id", job.get("request_id"), REQUEST_ID)
    gates.at_least("events_streamed", len(event_frames), 1)
    gates.at_least("spans_streamed", len(span_frames), 1)
    gates.at_least("correlated_events", len(correlated_events), 1)
    gates.at_least("correlated_spans", len(correlated_spans), 1)
    family = "repro_http_requests_total"
    gates.at_least(
        "requests_counted_between_scrapes",
        total(second_scrape, family) - total(first_scrape, family),
        1,
    )
    gates.at_least(
        "sse_events_counted",
        total(second_scrape, "repro_sse_events_total"),
        1,
    )
    record = {
        "request_id": REQUEST_ID,
        "scrape_series": len(second_scrape),
        "events_streamed": len(event_frames),
        "spans_streamed": len(span_frames),
        "correlated_events": len(correlated_events),
        "correlated_spans": len(correlated_spans),
    }
    return harness.write_record(
        OUTPUT, record, gates, section="telemetry_smoke"
    )


if __name__ == "__main__":
    raise SystemExit(main())
