"""Record multi-tenant service behaviour to BENCH_service.json and gate on it.

The service's promise is *bounded memory under real concurrency*: many
tenants, few resident kernels, eviction/rehydration invisible except as
latency.  This recorder stands up the real asyncio HTTP server on a
loopback socket, drives ``TENANTS`` concurrent tenants (each from its own
thread over a keep-alive connection) through the full integration
lifecycle — create, load schemas, declare equivalences, assert, integrate,
query, undo/redo, checkpoint — with a deliberately small residency bound,
and records:

* request latency (p50 / p95 / p99) and total throughput;
* eviction / rehydration counts (the churn must actually happen);
* resident bytes per session → sessions-per-GB capacity.

Gates (the ``make service-smoke`` contract):

* every tenant completes its whole workload — at least 16 concurrently
  sustained tenants with zero failed requests;
* the residency bound forced at least one eviction AND one rehydration
  (otherwise the run proved nothing about parking);
* p99 request latency stays under ``P99_CEILING_SECONDS``.

Run:  PYTHONPATH=src python benchmarks/record_service.py [--smoke]
Exits non-zero when a gate fails.
"""

from __future__ import annotations

import argparse
import statistics
import tempfile
import threading
import time
from pathlib import Path

import harness
from harness import SC1_DDL, SC2_DDL, Gates, HttpClient, Service, percentile

OUTPUT = harness.REPO_ROOT / "BENCH_service.json"

TENANTS = 20
MAX_RESIDENT = 6  # far below TENANTS: every round churns the pool
ROUNDS_FULL = 4
ROUNDS_SMOKE = 2
MIN_SUSTAINED_TENANTS = 16
P99_CEILING_SECONDS = 0.75


class TenantClient(HttpClient):
    """One tenant's keep-alive connection; records every request latency."""

    def __init__(self, port: int, token: str) -> None:
        super().__init__(port, token)
        self.latencies: list[float] = []
        self.failures: list[str] = []

    def call(self, method: str, path: str, body: dict | None = None) -> None:
        start = time.perf_counter()
        status, data = self.request(method, path, body)
        self.latencies.append(time.perf_counter() - start)
        if status >= 400:
            self.failures.append(f"{method} {path} -> {status} {data[:200]!r}")


def tenant_workload(client: TenantClient, tenant: str, rounds: int) -> None:
    sid = "bench"
    client.call("POST", "/v1/sessions", {"session_id": sid})
    client.call("POST", f"/v1/sessions/{sid}/schemas", {"ddl": SC1_DDL})
    client.call("POST", f"/v1/sessions/{sid}/schemas", {"ddl": SC2_DDL})
    for first, second in (
        ("sc1.Student.Name", "sc2.Grad_student.Name"),
        ("sc1.Department.Name", "sc2.Department.Name"),
    ):
        client.call(
            "POST",
            f"/v1/sessions/{sid}/equivalences",
            {"first": first, "second": second},
        )
    client.call(
        "GET", f"/v1/sessions/{sid}/candidates?first=sc1&second=sc2"
    )
    client.call(
        "POST",
        f"/v1/sessions/{sid}/assertions",
        {"first": "sc1.Department", "second": "sc2.Department",
         "kind": "EQUALS"},
    )
    client.call(
        "POST",
        f"/v1/sessions/{sid}/assertions",
        {"first": "sc1.Student", "second": "sc2.Grad_student",
         "kind": "CONTAINS"},
    )
    client.call(
        "POST",
        f"/v1/sessions/{sid}/integrate",
        {"first": "sc1", "second": "sc2"},
    )
    client.call(
        "POST",
        f"/v1/sessions/{sid}/query",
        {"request": "select D_Name from Student"},
    )
    for _ in range(rounds):
        client.call("POST", f"/v1/sessions/{sid}/undo")
        client.call("POST", f"/v1/sessions/{sid}/redo")
        client.call("GET", f"/v1/sessions/{sid}")
        client.call("POST", f"/v1/sessions/{sid}/checkpoint")
        client.call("GET", "/v1/sessions")
    client.call("GET", "/v1/stats")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer rounds per tenant (CI); same gates",
    )
    args = parser.parse_args(argv)
    rounds = ROUNDS_SMOKE if args.smoke else ROUNDS_FULL

    tokens = {f"token-{i}": f"tenant{i:02d}" for i in range(TENANTS)}
    with tempfile.TemporaryDirectory() as tmp:
        with Service(
            Path(tmp),
            tokens,
            max_resident=MAX_RESIDENT,
            executor_workers=TENANTS,
        ) as server:
            clients = [
                TenantClient(server.port, token) for token in tokens
            ]
            threads = [
                threading.Thread(
                    target=tenant_workload,
                    args=(client, tenant, rounds),
                )
                for client, tenant in zip(clients, tokens.values())
            ]
            wall_start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            wall_seconds = time.perf_counter() - wall_start
            for client in clients:
                client.close()
            stats = server.app.manager.stats()

    latencies = [lat for client in clients for lat in client.latencies]
    failures = [msg for client in clients for msg in client.failures]
    sustained = sum(
        1 for client in clients if client.latencies and not client.failures
    )
    bytes_per_session = stats.resident_bytes / max(
        stats.resident_sessions, 1
    )
    sessions_per_gb = int((1 << 30) / max(bytes_per_session, 1))
    p99 = percentile(latencies, 0.99)
    for message in failures[:10]:
        print(f"FAILED REQUEST: {message}")

    gates = Gates()
    gates.at_least("sustained_tenants", sustained, MIN_SUSTAINED_TENANTS)
    gates.equal("failed_requests", len(failures), 0)
    # the run proves nothing about parking unless both directions happened
    gates.at_least(
        "eviction_churn", min(stats.evictions, stats.rehydrations), 1
    )
    gates.at_most("p99_latency", p99, P99_CEILING_SECONDS)
    report = {
        "description": (
            "multi-tenant service lifecycle over the real asyncio server; "
            "see docs/SERVICE.md and make service-smoke"
        ),
        "smoke": args.smoke,
        "tenants": TENANTS,
        "rounds_per_tenant": rounds,
        "max_resident": MAX_RESIDENT,
        "requests": {
            "total": len(latencies),
            "failed": len(failures),
            "wall_seconds": round(wall_seconds, 3),
            "throughput_per_second": round(
                len(latencies) / max(wall_seconds, 1e-9), 1
            ),
        },
        "latency_seconds": {
            "mean": round(statistics.fmean(latencies), 6),
            "p50": round(percentile(latencies, 0.50), 6),
            "p95": round(percentile(latencies, 0.95), 6),
            "p99": round(p99, 6),
            "max": round(max(latencies), 6),
        },
        "residency": {
            "resident_sessions": stats.resident_sessions,
            "known_sessions": stats.known_sessions,
            "resident_bytes": stats.resident_bytes,
            "evictions": stats.evictions,
            "rehydrations": stats.rehydrations,
            "approx_bytes_per_session": int(bytes_per_session),
            "sessions_per_gb": sessions_per_gb,
        },
    }
    return harness.write_record(OUTPUT, report, gates)


if __name__ == "__main__":
    raise SystemExit(main())
