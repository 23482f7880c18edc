"""Record replication behaviour to BENCH_replication.json and gate on it.

Three promises of the WAL-shipped replica plane, measured for real:

* **steady-state lag** — a leader/replica pair joined by the in-process
  link with the background pump running; seeded read/write traffic
  (:func:`repro.workloads.service_traffic`, reads routed to the replica)
  while every leader write is timed until the replica observably serves
  it.  Gate: lag p99 <= ``LAG_P99_CEILING_SECONDS``.
* **failover** — ``POST /v1/replication/promote`` on the replica, timed
  until its first successfully served read.  Gate: promotion-to-first-
  read <= ``PROMOTION_CEILING_SECONDS``; the fenced ex-leader must
  refuse writes with the typed error.
* **chaos convergence** — a crash-scheduled shipping run (every
  replication crashpoint, torn and clean) over at least
  ``CHAOS_EVENTS`` leader events; at every observation the follower's
  fingerprint must equal a committed leader state, and one clean round
  must converge exactly.  Gate: zero divergent fingerprints.

Run:  PYTHONPATH=src python benchmarks/record_replication.py [--smoke]
Exits non-zero when a gate fails.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import tempfile
import time
from pathlib import Path
from unittest import mock

import harness
from harness import SC1_DDL, SC2_DDL, Gates, percentile
from repro import faults
from repro.errors import ReproError
from repro.faults import FaultPlan, InjectedCrash
from repro.kernel import wal as wal_module
from repro.replication import (
    ReplicaApplier,
    payload_fingerprint,
    ShipCursor,
    Shipment,
    WalShipper,
    decode_frames,
    encode_frames,
)
from repro.service import Request, ServiceApp, TenantAuth
from repro.service.replication import InProcessLeaderLink
from repro.tool.session import ToolSession
from repro.workloads import TrafficConfig, service_traffic
from repro.workloads.university import build_sc1, build_sc2

OUTPUT = harness.REPO_ROOT / "BENCH_replication.json"

LAG_P99_CEILING_SECONDS = 0.25
PROMOTION_CEILING_SECONDS = 1.0
POLL_SECONDS = 0.02
#: shared replication-plane secret for the leader/replica pair
REPL_TOKEN = "repl-bench-secret"

OPERATIONS_FULL = 120
OPERATIONS_SMOKE = 40
READ_FRACTION = 0.7
CHAOS_EVENTS_FULL = 500
CHAOS_EVENTS_SMOKE = 120


class Client:
    """Drives ``ServiceApp.dispatch`` in process; no sockets needed."""

    def __init__(self, app: ServiceApp, token: str = "token-acme") -> None:
        self.app = app
        self.token = token

    def call(self, method, path, body=None, *, query=None, headers=None):
        all_headers = {"authorization": f"Bearer {self.token}"}
        all_headers.update(headers or {})
        response = self.app.dispatch(
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
        return response.status, response.json_payload()


def wait_for_state(replica: Client, sid: str, state_fingerprint: str,
                   timeout: float = 10.0) -> float:
    """Seconds until the replica observably serves the leader's state.

    Fingerprint equality, not offset comparison: an undo *lowers* the
    leader's event offset, so only the bitwise state proves catch-up.
    """
    start = time.perf_counter()
    deadline = start + timeout
    while time.perf_counter() < deadline:
        status, payload = replica.call("GET", f"/v1/sessions/{sid}")
        if (
            status == 200
            and payload["state_fingerprint"] == state_fingerprint
        ):
            return time.perf_counter() - start
        time.sleep(0.001)
    raise RuntimeError("replica never converged to the leader state")


def measure_service_pair(operations: int):
    """Steady-state lag and promotion timing over a live pump."""
    lag_samples: list[float] = []
    read_failures: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        auth = TenantAuth.from_tokens({"token-acme": "acme"})
        leader_app = ServiceApp(
            Path(tmp) / "leader", auth=auth, replication_token=REPL_TOKEN
        )
        replica_app = ServiceApp(
            Path(tmp) / "replica",
            auth=TenantAuth.from_tokens({"token-acme": "acme"}),
            replication_link=InProcessLeaderLink(leader_app, REPL_TOKEN),
            replication_token=REPL_TOKEN,
            max_lag_s=60.0,  # lag is measured here, not enforced
            replication_poll_s=POLL_SECONDS,
        )
        try:
            leader = Client(leader_app)
            replica = Client(replica_app)
            operator = Client(replica_app, token=REPL_TOKEN)
            assert leader.call(
                "POST", "/v1/sessions", {"session_id": "s1"}
            )[0] == 201
            for ddl in (SC1_DDL, SC2_DDL):
                assert leader.call(
                    "POST", "/v1/sessions/s1/schemas", {"ddl": ddl}
                )[0] == 201
            _, detail = leader.call("GET", "/v1/sessions/s1")
            wait_for_state(
                replica, "s1", detail["state_fingerprint"]
            )  # bootstrap ships

            config = TrafficConfig(
                operations=operations,
                read_fraction=READ_FRACTION,
                seed=2024,
            )
            reads = writes = 0
            for call in service_traffic(config):
                if call.is_read:
                    reads += 1
                    status, _ = replica.call(
                        call.method, call.path, query=call.query
                    )
                    if status >= 300:
                        read_failures.append(f"{call.path} -> {status}")
                else:
                    writes += 1
                    status, _ = leader.call(
                        call.method, call.path, call.body
                    )
                    assert status < 300, (call, status)
                    _, detail = leader.call("GET", "/v1/sessions/s1")
                    lag_samples.append(
                        wait_for_state(
                            replica, "s1", detail["state_fingerprint"]
                        )
                    )

            _, before = leader.call("GET", "/v1/sessions/s1")
            promote_start = time.perf_counter()
            status, promoted = operator.call(
                "POST", "/v1/replication/promote"
            )
            assert status == 200 and promoted["role"] == "leader"
            status, served = replica.call("GET", "/v1/sessions/s1")
            assert status == 200
            promotion_seconds = time.perf_counter() - promote_start
            fingerprint_preserved = (
                served["state_fingerprint"] == before["state_fingerprint"]
            )
            status, refused = leader.call(
                "POST", "/v1/sessions/s1/undo"
            )
            fenced = (
                status == 503
                and refused["error"]["code"] == "replication_fenced"
            )
            status, _ = replica.call("POST", "/v1/sessions/s1/undo")
            writable_after_promotion = status == 200
        finally:
            replica_app.close()
            leader_app.close()
    return {
        "lag_samples": lag_samples,
        "reads": reads,
        "writes": writes,
        "read_failures": read_failures,
        "promotion_seconds": promotion_seconds,
        "promoted_epoch": promoted["epoch"],
        "fingerprint_preserved": fingerprint_preserved,
        "old_leader_fenced": fenced,
        "writable_after_promotion": writable_after_promotion,
    }


def fingerprint(session: ToolSession) -> str:
    return payload_fingerprint(session.analysis.state_payload())


PAIRS = (
    ("sc1.Student.Name", "sc2.Grad_student.Name"),
    ("sc1.Department.Name", "sc2.Department.Name"),
)


def chaos_move(session: ToolSession, save: Path, rng: random.Random):
    roll = rng.random()
    try:
        if roll < 0.45:
            session.registry.declare_equivalent(*rng.choice(PAIRS))
        elif roll < 0.75:
            session.undo()
        elif roll < 0.9:
            session.analysis.kernel.wal.rotate()
        else:
            session.save(save)  # checkpoint: WAL generation reset
    except ReproError:
        pass  # invalid moves are recorded as failure events


def replicate_round(shipper, applier):
    leader_died = False
    shipment = shipper.poll(applier.cursor)
    try:
        data = encode_frames(list(shipment.records))
    except InjectedCrash as crash:
        data = crash.partial or b""
        leader_died = True
    records, _good, _damaged = decode_frames(data)
    start = shipment.cursor.records - len(shipment.records)
    applier.apply(
        Shipment(
            records=tuple(records),
            cursor=ShipCursor(
                shipment.cursor.generation, start + len(records)
            ),
            restarted=shipment.restarted,
            damaged=shipment.damaged,
            quarantined=shipment.quarantined,
        )
    )
    return applier, leader_died


def chaos_run(target_events: int):
    """A crash-scheduled shipping run; counts divergent observations."""
    rng = random.Random(7)
    points = (
        "repl.ship.read",
        "repl.ship.frame",
        "repl.apply.record",
        "repl.promote.persist",
    )
    divergent = 0
    observations = 0
    crashes = 0
    # a segment every 3 commits: the stream crosses rotations
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        wal_module, "SEGMENT_COMMITS", 3
    ):
        save = Path(tmp) / "leader.json"
        session = ToolSession.open(save)
        committed = {fingerprint(session)}
        session.adopt_schema(build_sc1())
        committed.add(fingerprint(session))
        session.adopt_schema(build_sc2())
        committed.add(fingerprint(session))
        shipper = WalShipper(f"{save}.wal")
        applier = ReplicaApplier()
        episode = 0
        events = 0  # leader moves; each appends at least one WAL record
        while events < target_events:
            plan = FaultPlan(
                crash_at=points[episode % len(points)],
                occurrence=1 + episode % 3,
                torn=bool(episode % 2),
                seed=episode,
            )
            episode += 1
            with faults.inject(plan):
                for _ in range(4):
                    chaos_move(session, save, rng)
                    events += 1
                    committed.add(fingerprint(session))
                    try:
                        applier, leader_died = replicate_round(
                            shipper, applier
                        )
                    except InjectedCrash:
                        leader_died = True
                        applier = ReplicaApplier(state=applier.state())
                    if leader_died:
                        crashes += 1
                        session = ToolSession.open(save)
                        committed.add(fingerprint(session))
                    observed = applier.fingerprint()
                    if observed is not None:
                        observations += 1
                        if observed not in committed:
                            divergent += 1
        applier, _ = replicate_round(shipper, applier)
        converged = applier.fingerprint() == fingerprint(session)
        final_offset = session.analysis.kernel.bus.offset
    return {
        "events": events,
        "final_offset": final_offset,
        "episodes": episode,
        "crashes_injected": crashes,
        "observations": observations,
        "divergent_fingerprints": divergent,
        "converged_after_faults": converged,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fewer operations and chaos events (CI); same gates",
    )
    args = parser.parse_args(argv)
    operations = OPERATIONS_SMOKE if args.smoke else OPERATIONS_FULL
    chaos_events = CHAOS_EVENTS_SMOKE if args.smoke else CHAOS_EVENTS_FULL

    service = measure_service_pair(operations)
    chaos = chaos_run(chaos_events)

    lags = service["lag_samples"]
    lag_p99 = percentile(lags, 0.99)
    for message in service["read_failures"][:10]:
        print(f"FAILED REPLICA READ: {message}")
    gates = Gates()
    gates.at_most("steady_state_lag_p99", lag_p99, LAG_P99_CEILING_SECONDS)
    gates.at_most(
        "promotion_to_first_read",
        service["promotion_seconds"],
        PROMOTION_CEILING_SECONDS,
    )
    for name in (
        "writable_after_promotion",
        "old_leader_fenced",
        "fingerprint_preserved",
    ):
        gates.holds(name, service[name])
    gates.equal("chaos_divergence", chaos["divergent_fingerprints"], 0)
    gates.holds("chaos_converged", chaos["converged_after_faults"])
    gates.equal("replica_read_failures", len(service["read_failures"]), 0)
    report = {
        "description": (
            "WAL-shipped replica lag, failover and chaos convergence; "
            "see docs/REPLICATION.md and make replica-smoke"
        ),
        "smoke": args.smoke,
        "traffic": {
            "operations": operations,
            "read_fraction": READ_FRACTION,
            "reads": service["reads"],
            "writes": service["writes"],
            "replica_read_failures": len(service["read_failures"]),
        },
        "lag_seconds": {
            "samples": len(lags),
            "mean": round(statistics.fmean(lags), 6),
            "p50": round(percentile(lags, 0.50), 6),
            "p95": round(percentile(lags, 0.95), 6),
            "p99": round(lag_p99, 6),
            "max": round(max(lags), 6),
        },
        "failover": {
            "promotion_to_first_read_seconds": round(
                service["promotion_seconds"], 6
            ),
            "promoted_epoch": service["promoted_epoch"],
            "fingerprint_preserved": service["fingerprint_preserved"],
            "old_leader_fenced": service["old_leader_fenced"],
            "writable_after_promotion": service[
                "writable_after_promotion"
            ],
        },
        "chaos": chaos,
    }
    return harness.write_record(OUTPUT, report, gates)


if __name__ == "__main__":
    raise SystemExit(main())
