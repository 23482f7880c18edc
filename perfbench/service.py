"""The ``service_hot`` and ``service_churn`` workloads: closed-loop ``/v1`` load.

The service runs in its own process, started from ``perfbench/server.py``
with the default flush policy: fsync on every WAL append, fsync plus
rename on every checkpoint.  Its session root is a directory of the
run's scratch area inside the checkout.  Two client threads, each with
one keep-alive connection, own half the sessions each and replay
``repro.workloads.service_traffic`` (80 % reads) closed-loop: a thread
sends its next request only after the previous reply.  Each thread
visits its sessions round robin, one session-scoped request each.

``service_hot`` keeps every session resident.  ``service_churn`` keeps
at most two of six resident, so every session-scoped request parks the
least recently used session (a checkpoint) and rehydrates its own
(recovery from the save plus WAL).  Nothing else differs.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from urllib.parse import urlencode

from repro.ecr.ddl import parse_ddl, to_ddl
from repro.service.manager import state_fingerprint
from repro.tool.session import ToolSession
from repro.workloads.traffic import TrafficConfig, service_traffic
from repro.workloads.university import build_sc1, build_sc2

from measure import (
    block_medians,
    calibrate_device,
    process_peak_rss_mb,
    split_cpus,
)

HERE = Path(__file__).resolve().parent
TENANT = "bench"
TOKEN = "perfbench-token"
CONNECTIONS = 2
READ_FRACTION = 0.8
#: calls generated per session stream; far more than any run consumes
STREAM_OPERATIONS = 100_000
SETUP_REPEATS = 3
#: the measured phase is cut into blocks of about this many seconds;
#: latency and throughput are the medians of the blocks' figures
BLOCK_S = 1.0


@dataclass(frozen=True)
class Shape:
    sessions: int
    max_resident: int
    #: untimed requests per connection before measuring
    warmup: int
    #: measured requests per connection in a traced run (fixed)
    traced_requests: int


SHAPES = {
    "service_hot": Shape(sessions=8, max_resident=8, warmup=200, traced_requests=2000),
    "service_churn": Shape(sessions=6, max_resident=2, warmup=6, traced_requests=60),
}


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Connection:
    """One keep-alive HTTP/1.1 client connection over a plain socket.

    The service answers every request with a ``Content-Length``, so a
    reply is its head up to the blank line plus that many body bytes.
    The client is kept this small because it shares the machine's two
    cores with the server it measures.
    """

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def send(self, method: str, path: str, body=None, query=None):
        target = f"{path}?{urlencode(query)}" if query else path
        data = json.dumps(body).encode() if body is not None else b""
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Authorization: Bearer {TOKEN}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        )
        self.sock.sendall(head.encode("latin-1") + data)
        return self._read_reply()

    def _read_reply(self) -> tuple[int, bytes]:
        buffer = self.buffer
        while (end := buffer.find(b"\r\n\r\n")) < 0:
            buffer += self._recv()
        lines = buffer[:end].decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        need = end + 4 + length
        while len(buffer) < need:
            buffer += self._recv()
        self.buffer = buffer[need:]
        return status, buffer[end + 4 : need]

    def _recv(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        return chunk

    def close(self) -> None:
        self.sock.close()


class Server:
    """The service process on its own session root."""

    def __init__(self, root: Path, max_resident: int, trace_out: Path | None) -> None:
        self.root = root
        self.port = _free_port()
        self.log = root.parent / f"{root.name}.log"
        root.parent.mkdir(parents=True, exist_ok=True)
        args = [sys.executable, str(HERE / "server.py")]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        args += [
            "--", "--root", str(root), "--port", str(self.port),
            "--token", f"{TENANT}:{TOKEN}",
            "--max-resident", str(max_resident), "--log-level", "warning",
        ]
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                args, stdin=subprocess.DEVNULL, stdout=log, stderr=log
            )
        server_cpus = split_cpus()[1]
        try:
            if server_cpus:
                os.sched_setaffinity(self.process.pid, server_cpus)
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited: {self.log.read_text()[-2000:]}")
            try:
                connection = Connection(self.port)
                try:
                    status, _ = connection.send("GET", "/v1/healthz")
                finally:
                    connection.close()
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("server did not become ready")

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=120)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def session_ids(shape: Shape) -> list[str]:
    return [f"s{index}" for index in range(shape.sessions)]


def paper_ddl() -> list[str]:
    return [to_ddl(build_sc1()), to_ddl(build_sc2())]


def set_up(root: Path, shape: Shape, trace_out: Path | None = None):
    """Start a server and create every session with both paper schemas."""
    started = time.perf_counter()
    server = Server(root, shape.max_resident, trace_out)
    try:
        connection = Connection(server.port)
        try:
            for sid in session_ids(shape):
                calls = [("/v1/sessions", {"session_id": sid})] + [
                    (f"/v1/sessions/{sid}/schemas", {"ddl": ddl})
                    for ddl in paper_ddl()
                ]
                for path, body in calls:
                    status, payload = connection.send("POST", path, body)
                    if status != 201:
                        raise RuntimeError(f"set-up {path}: {status} {payload[:200]!r}")
        finally:
            connection.close()
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started


def stream_config(seed: int, index: int, sid: str) -> TrafficConfig:
    return TrafficConfig(
        seed=seed * 100 + index,
        operations=STREAM_OPERATIONS,
        read_fraction=READ_FRACTION,
        session_id=sid,
    )


class Turns:
    """Makes the client threads send strictly one after the other.

    The fixed-size passes of a traced run use it: with the two
    connections interleaving freely, which session the manager parks
    depends on timing, and so would the eviction count.
    """

    def __init__(self, parties: int) -> None:
        self.parties = parties
        self.turn = 0
        self.cond = threading.Condition()

    def wait(self, index: int) -> None:
        with self.cond:
            if not self.cond.wait_for(lambda: self.turn == index, timeout=120):
                raise RuntimeError("the other client thread stopped taking turns")

    def done(self) -> None:
        with self.cond:
            self.turn = (self.turn + 1) % self.parties
            self.cond.notify_all()


@dataclass
class Client:
    """One client thread: a connection and the sessions it owns."""

    port: int
    sids: list[str]
    seed: int
    index: int
    executed: dict[str, int] = field(default_factory=dict)
    latencies: list[float] = field(default_factory=list)
    #: perf_counter time each measured reply completed
    finished: list[float] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.connection = Connection(self.port)
        self.streams = {
            sid: iter(service_traffic(stream_config(self.seed, int(sid[1:]), sid)))
            for sid in self.sids
        }
        self.executed = dict.fromkeys(self.sids, 0)
        self._visits = 0

    def run(self, *, count: int | None = None, deadline: float | None = None,
            measure: bool = True, turns: Turns | None = None) -> None:
        clock = time.perf_counter
        sent = 0
        while (count is None or sent < count) and (
            deadline is None or clock() < deadline
        ):
            sid = self.sids[self._visits % len(self.sids)]
            call = next(self.streams[sid])
            self.executed[sid] += 1
            if call.path.startswith("/v1/sessions/"):
                self._visits += 1
            if turns is not None:
                turns.wait(self.index)
            began = clock()
            status, payload = self.connection.send(
                call.method, call.path, call.body, call.query
            )
            done = clock()
            if turns is not None:
                turns.done()
            elapsed = done - began
            sent += 1
            if not measure:
                if status >= 300:
                    raise RuntimeError(f"warm-up {call.path}: {status}")
                continue
            self.attempted += 1
            self.latencies.append(elapsed)
            self.finished.append(done)
            if status >= 300:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{call.method} {call.path}: {status} {payload[:200]!r}")


def run_clients(clients: list[Client], **kwargs) -> tuple[float, float]:
    """Run every client on its own thread; returns the phase's (start, end)."""
    failures: list[BaseException] = []

    def target(client: Client) -> None:
        try:
            client.run(**kwargs)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            failures.append(exc)

    threads = [threading.Thread(target=target, args=(d,)) for d in clients]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ended = time.perf_counter()
    if failures:
        raise failures[0]
    return started, ended


def make_clients(port: int, shape: Shape, seed: int) -> list[Client]:
    sids = session_ids(shape)
    return [
        Client(port, sids[index::CONNECTIONS], seed, index)
        for index in range(CONNECTIONS)
    ]


def expected_fingerprint(seed: int, sid: str, calls: int) -> str:
    """Replay a session's executed calls on an in-process ToolSession."""
    session = ToolSession()
    for ddl in paper_ddl():
        session.adopt_schema(parse_ddl(ddl))
    stream = service_traffic(stream_config(seed, int(sid[1:]), sid))
    for call in islice(stream, calls):
        if call.is_read:
            continue
        if call.path.endswith("/equivalences"):
            session.analysis.declare_equivalent(call.body["first"], call.body["second"])
        else:
            session.undo()
    return state_fingerprint(session)


def check_sessions(port: int, clients: list[Client], seed: int) -> list[str]:
    """Compare every session's served fingerprint with its in-process replay."""
    mismatches = []
    connection = Connection(port)
    try:
        for client in clients:
            for sid, calls in client.executed.items():
                status, payload = connection.send("GET", f"/v1/sessions/{sid}")
                served = json.loads(payload).get("state_fingerprint") if status == 200 else None
                if served != expected_fingerprint(seed, sid, calls):
                    mismatches.append(sid)
    finally:
        connection.close()
    return mismatches


def manager_stats(port: int) -> dict:
    connection = Connection(port)
    try:
        status, payload = connection.send("GET", "/v1/stats")
    finally:
        connection.close()
    return json.loads(payload)["manager"]


def stored_bytes(root: Path) -> int:
    return sum(
        entry.stat().st_size for entry in root.rglob("*") if entry.is_file()
    )


def _close(clients: list[Client]) -> None:
    for client in clients:
        client.connection.close()


def run(workload: str, seed: int, seconds: float, trace: bool, scratch: Path) -> dict:
    shape = SHAPES[workload]
    device = calibrate_device(scratch / "calibrate")
    if trace:
        result = _run_traced(shape, seed, scratch)
    else:
        result = _run_untraced(shape, seed, seconds, scratch)
    result["report"]["device"] = device
    result["report"]["flush_policy"] = (
        "fsync on every WAL append; fsync + rename + directory fsync on every checkpoint"
    )
    return result


def _run_untraced(shape: Shape, seed: int, seconds: float, scratch: Path) -> dict:
    setups = []
    server = None
    for repeat in range(SETUP_REPEATS):
        if server is not None:
            server.stop()
            shutil.rmtree(server.root)
        server, setup_s = set_up(scratch / f"root{repeat}", shape)
        setups.append(setup_s)
    clients: list[Client] = []
    try:
        clients = make_clients(server.port, shape, seed)
        run_clients(clients, count=shape.warmup, measure=False)
        started, ended = run_clients(
            clients, deadline=time.perf_counter() + seconds
        )
        stored = stored_bytes(server.root)
        peak_rss = server.peak_rss_mb()
        stats = manager_stats(server.port)
        mismatches = check_sessions(server.port, clients, seed)
    finally:
        _close(clients)
        server.stop()
    latencies = [value for client in clients for value in client.latencies]
    finished = [value for client in clients for value in client.finished]
    attempted = sum(client.attempted for client in clients)
    failed = sum(client.failed for client in clients) + len(mismatches)
    blocks = block_medians(
        finished, latencies, started, ended, max(1, round(seconds / BLOCK_S))
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (1e3 * blocks["p50"], "ms"),
        "latency_p99_ms": (1e3 * blocks["p99"], "ms"),
        "throughput_ops": (blocks["rate"], "1/s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    report = {
        "requests": attempted,
        "block_rates": blocks["block_rates"],
        "req_p50_ms": metrics["latency_p50_ms"][0],
        "req_p99_ms": metrics["latency_p99_ms"][0],
        "throughput_rps": metrics["throughput_ops"][0],
        "stored_bytes_per_session": stored / shape.sessions,
        "error_rate": failed / max(1, attempted),
        "evictions": stats["evictions"],
        "rehydrations": stats["rehydrations"],
        "fingerprint_mismatches": mismatches,
        "errors": [error for client in clients for error in client.errors],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


def _fixed_pass(shape: Shape, seed: int, root: Path, trace_out: Path | None) -> dict:
    """Set up, warm up, then send a fixed number of requests per connection."""
    server, _ = set_up(root, shape, trace_out)
    clients: list[Client] = []
    try:
        clients = make_clients(server.port, shape, seed)
        run_clients(
            clients, count=shape.warmup, measure=False, turns=Turns(CONNECTIONS)
        )
        before = manager_stats(server.port)
        started, ended = run_clients(
            clients, count=shape.traced_requests, turns=Turns(CONNECTIONS)
        )
        after = manager_stats(server.port)
        stored = stored_bytes(root)
        mismatches = check_sessions(server.port, clients, seed)
    finally:
        _close(clients)
        server.stop()
    return {
        "window": (started, ended),
        "clients": clients,
        "stored": stored,
        "mismatches": mismatches,
        "residency": {
            key: after[key] - before[key] for key in ("evictions", "rehydrations")
        },
    }


def _run_traced(shape: Shape, seed: int, scratch: Path) -> dict:
    import layers

    untraced = _fixed_pass(shape, seed, scratch / "untraced", None)
    trace_file = scratch / "trace.json"
    traced = _fixed_pass(shape, seed, scratch / "traced", trace_file)
    start, end = traced["window"]
    spans = [
        span
        for span in layers.spans_from_dicts(json.loads(trace_file.read_text())["spans"])
        if start <= span.start and span.end <= end
    ]
    counters: dict[str, int] = {}
    for span in spans:
        for name, delta in span.attrs.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + delta
    clients = traced["clients"]
    latencies = [value for client in clients for value in client.latencies]
    attempted = sum(client.attempted for client in clients)
    failed = (
        sum(client.failed for client in untraced["clients"] + clients)
        + len(untraced["mismatches"]) + len(traced["mismatches"])
    )
    if untraced["residency"] != traced["residency"]:
        failed += 1  # tracing changed what the manager did, or it varies
    untraced_s = untraced["window"][1] - untraced["window"][0]
    metrics = layers.summarize(
        spans,
        counters=counters,
        e2e_s=sum(latencies),
        operations=attempted,
        client_latencies=latencies,
        bytes_per_session=traced["stored"] / shape.sessions,
        overhead_pct=100 * ((end - start) - untraced_s) / untraced_s,
    )
    report = {
        "requests": attempted,
        "untraced_pass_s": untraced_s,
        "traced_pass_s": end - start,
        "residency": traced["residency"],
        "fingerprint_mismatches": untraced["mismatches"] + traced["mismatches"],
        "errors": [error for client in clients for error in client.errors],
    }
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "report": report}


__all__ = ["SHAPES", "run"]
