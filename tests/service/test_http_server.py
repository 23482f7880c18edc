"""The HTTP server over a real socket: framing, keep-alive, auth, SSE, stop."""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.service import ServiceApp, TenantAuth
from repro.service.app import serve
from repro.service.http import (
    MAX_BODY_BYTES,
    MAX_HEAD_BYTES,
    Request,
    Response,
    parse_target,
    read_request,
)


class Live:
    """A live server on an ephemeral port, served from a background thread."""

    def __init__(self, app: ServiceApp, **options) -> None:
        self.app = app
        self.server = serve(app, "127.0.0.1", 0, **options)
        self.port = self.server.port

    def stop(self) -> None:
        """Stop serving, then checkpoint and close the app."""
        self.server.stop()
        self.app.close()


def make_app(root) -> ServiceApp:
    return ServiceApp(
        root, auth=TenantAuth.from_tokens({"tok": "acme"}), max_resident=4
    )


@pytest.fixture
def live(tmp_path):
    handle = Live(make_app(tmp_path / "root"))
    try:
        yield handle
    finally:
        handle.stop()


@pytest.fixture
def server(live):
    return live.port


def raw_exchange(port: int, payload: bytes, *, recv_until_close=True) -> bytes:
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
        return b"".join(chunks)


def http(
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    *,
    token: str | None = "tok",
    close: bool = True,
) -> tuple[int, dict]:
    data = json.dumps(body).encode() if body is not None else b""
    headers = [f"{method} {path} HTTP/1.1", "host: localhost"]
    if token:
        headers.append(f"authorization: Bearer {token}")
    if data:
        headers.append(f"content-length: {len(data)}")
    if close:
        headers.append("connection: close")
    raw = ("\r\n".join(headers) + "\r\n\r\n").encode() + data
    answer = raw_exchange(port, raw)
    head, _, payload = answer.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, json.loads(payload) if payload else None


class TestOverTheWire:
    def test_health_and_auth(self, server):
        assert http(server, "GET", "/v1/healthz", token=None) == (
            200,
            {"status": "ok"},
        )
        status, payload = http(server, "GET", "/v1/sessions", token=None)
        assert status == 401

    def test_full_lifecycle_over_socket(self, server):
        status, payload = http(
            server, "POST", "/v1/sessions", {"session_id": "wire"}
        )
        assert status == 201
        status, payload = http(
            server,
            "POST",
            "/v1/sessions/wire/schemas",
            {"ddl": "schema sc1\nentity Thing\n  attr Name : string key\n"},
        )
        assert status == 201
        status, payload = http(server, "GET", "/v1/sessions/wire")
        assert payload["schemas"] == ["sc1"]

    def test_keep_alive_two_requests_one_connection(self, server):
        first = (
            b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\n\r\n"
            b"GET /v1/about HTTP/1.1\r\nhost: x\r\nconnection: close\r\n\r\n"
        )
        answer = raw_exchange(server, first)
        assert answer.count(b"HTTP/1.1 200") == 2
        assert b'"api": "v1"' in answer or b'"api":"v1"' in answer

    def test_malformed_request_line_is_400(self, server):
        answer = raw_exchange(server, b"NONSENSE\r\n\r\n")
        assert b"400" in answer.split(b"\r\n")[0]

    def test_query_string_reaches_handler(self, server):
        http(server, "POST", "/v1/sessions", {"session_id": "q"})
        status, payload = http(
            server, "DELETE", "/v1/sessions/q?purge=true"
        )
        assert payload["purged"] is True

    def test_oversized_body_is_rejected(self, server):
        headers = (
            f"POST /v1/sessions HTTP/1.1\r\nhost: x\r\n"
            f"authorization: Bearer tok\r\n"
            f"content-length: {MAX_BODY_BYTES + 1}\r\n\r\n"
        ).encode()
        answer = raw_exchange(server, headers)
        assert b"400" in answer.split(b"\r\n")[0]

    def test_chunked_encoding_is_rejected(self, server):
        raw = (
            b"POST /v1/sessions HTTP/1.1\r\nhost: x\r\n"
            b"transfer-encoding: chunked\r\n\r\n"
        )
        answer = raw_exchange(server, raw)
        assert b"400" in answer.split(b"\r\n")[0]


SC_DDL = (
    "schema sc1\nentity Student\n  attr Name : string key\n",
    "schema sc2\nentity Pupil\n  attr Name : string key\n",
)


def seed_session(port: int, sid: str) -> None:
    assert http(port, "POST", "/v1/sessions", {"session_id": sid})[0] == 201
    for ddl in SC_DDL:
        path = f"/v1/sessions/{sid}/schemas"
        assert http(port, "POST", path, {"ddl": ddl})[0] == 201


def open_stream(port: int, target: str) -> tuple[socket.socket, bytes]:
    """Start an SSE request; return the socket once the stream is open."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.sendall(
        f"GET {target} HTTP/1.1\r\nhost: x\r\n"
        "authorization: Bearer tok\r\n\r\n".encode()
    )
    received = b""
    while b": stream open" not in received:
        chunk = sock.recv(65536)
        assert chunk, f"stream closed before it opened: {received!r}"
        received += chunk
    return sock, received


def read_to_eof(sock: socket.socket) -> bytes:
    chunks = []
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            return b"".join(chunks)
        chunks.append(chunk)


def wait_for(predicate, timeout: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


def healthy(port: int) -> bool:
    try:
        return http(port, "GET", "/v1/healthz", token=None)[0] == 200
    except OSError:
        return False


class TestStreamsOverTheWire:
    def test_events_stream_delivers_an_equivalence_then_closes(self, server):
        seed_session(server, "sse")
        sock, opened = open_stream(
            server,
            "/v1/sessions/sse/events/stream?max_events=1&linger_s=0",
        )
        with sock:
            assert opened.startswith(b"HTTP/1.1 200")
            assert b"content-type: text/event-stream" in opened
            status, _ = http(
                server,
                "POST",
                "/v1/sessions/sse/equivalences",
                {"first": "sc1.Student.Name", "second": "sc2.Pupil.Name"},
            )
            assert status == 201
            rest = read_to_eof(sock)  # max_events=1: the server closes
        frames = [
            block for block in (opened + rest).split(b"\n\n")
            if block.startswith(b"id:") or block.startswith(b"event:")
        ]
        kinds = [
            line.split(b": ", 1)[1]
            for block in frames
            for line in block.split(b"\n")
            if line.startswith(b"event: ")
        ]
        assert kinds == [b"kernel-event", b"end"]
        data = json.loads(
            next(
                line.split(b": ", 1)[1]
                for line in frames[0].split(b"\n")
                if line.startswith(b"data: ")
            )
        )
        assert data["scope"] == "registry"
        assert data["action"] == "declare_equivalent"

    def test_hang_up_mid_stream_unpins_the_session(self, live):
        seed_session(live.port, "gone")
        sock, _ = open_stream(
            live.port, "/v1/sessions/gone/events/stream?heartbeat_s=0.05"
        )
        manager = live.app.manager
        assert manager.info("acme", "gone").pinned
        sock.close()
        # the next heartbeat write fails and the stream's cleanup unpins
        assert wait_for(lambda: not manager.info("acme", "gone").pinned)


def rehydrated(root, sid: str) -> dict:
    """``GET /v1/sessions/{sid}`` on a fresh app over ``root``."""
    app = make_app(root)
    try:
        response = app.dispatch(
            Request(
                method="GET",
                path=f"/v1/sessions/{sid}",
                headers={"authorization": "Bearer tok"},
            )
        )
    finally:
        app.close()
    assert response.status == 200
    return response.json_payload()


def idle_connection(port: int) -> socket.socket:
    """A keep-alive connection that has had one reply and sits idle."""
    idle = socket.create_connection(("127.0.0.1", port), timeout=10)
    idle.sendall(b"GET /v1/healthz HTTP/1.1\r\nhost: x\r\n\r\n")
    assert idle.recv(65536).startswith(b"HTTP/1.1 200")
    return idle


class TestShutdown:
    def test_stop_with_an_idle_connection_keeps_the_write(self, tmp_path):
        root = tmp_path / "root"
        handle = Live(make_app(root))
        with idle_connection(handle.port) as idle:
            seed_session(handle.port, "keep")
            status, _ = http(
                handle.port,
                "POST",
                "/v1/sessions/keep/equivalences",
                {"first": "sc1.Student.Name", "second": "sc2.Pupil.Name"},
            )
            assert status == 201
            _, before = http(handle.port, "GET", "/v1/sessions/keep")
            started = time.monotonic()
            handle.stop()
            assert time.monotonic() - started < 5.0
            assert idle.recv(65536) == b""  # the server closed it
        after = rehydrated(root, "keep")
        assert after["state_fingerprint"] == before["state_fingerprint"]
        assert after["equivalence_classes"] == 1

    def test_stop_lets_an_in_flight_dispatch_reply(self, tmp_path):
        app = make_app(tmp_path / "root")
        entered = threading.Event()
        dispatch = app.dispatch

        def slow(request):
            entered.set()
            time.sleep(0.3)
            return dispatch(request)

        app.dispatch = slow
        handle = Live(app)
        answers = []
        client = threading.Thread(
            target=lambda: answers.append(
                http(handle.port, "GET", "/v1/about", token=None)[0]
            )
        )
        client.start()
        assert entered.wait(timeout=5)
        handle.stop()
        client.join(timeout=5)
        assert answers == [200]

    def test_sigint_stops_run_with_an_idle_connection(self, tmp_path):
        """``python -m repro.service`` exits promptly on SIGINT."""
        root = tmp_path / "root"
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.service", "--root", str(root),
                "--port", str(port), "--token", "acme:tok",
                "--log-level", "warning",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            assert wait_for(lambda: healthy(port), timeout=30)
            seed_session(port, "sig")
            _, before = http(port, "GET", "/v1/sessions/sig")
            with idle_connection(port) as idle:
                process.send_signal(signal.SIGINT)
                assert process.wait(timeout=5) == 0
                assert idle.recv(65536) == b""  # the server closed it
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        after = rehydrated(root, "sig")
        assert after["state_fingerprint"] == before["state_fingerprint"]


class TestDispatchBound:
    def test_at_most_executor_workers_inside_dispatch(self, tmp_path):
        app = make_app(tmp_path / "root")
        lock = threading.Lock()
        inside = [0]
        peak = [0]
        dispatch = app.dispatch

        def counted(request):
            with lock:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
            try:
                time.sleep(0.05)
                return dispatch(request)
            finally:
                with lock:
                    inside[0] -= 1

        app.dispatch = counted
        handle = Live(app, executor_workers=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            statuses = []
            clients = [
                threading.Thread(
                    target=lambda: statuses.append(
                        http(handle.port, "GET", "/v1/healthz", token=None)[0]
                    )
                )
                for _ in range(8)
            ]
            for client in clients:
                client.start()
            for client in clients:
                client.join(timeout=10)
                assert not client.is_alive()
        finally:
            sys.setswitchinterval(interval)
            handle.stop()
        assert statuses == [200] * 8
        assert peak[0] == 2


class TestFramingUnits:
    @pytest.mark.parametrize(
        "raw",
        [
            b"GET / HTTP/1.1\r\nhost: x\r\n",  # EOF inside the head
            b"GET / HTTP/1.1\r\nx: " + b"y" * MAX_HEAD_BYTES + b"\r\n\r\n",
            b"POST / HTTP/1.1\r\ncontent-length: 5\r\n\r\nabc",
            b"POST / HTTP/1.1\r\ncontent-length: five\r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
        ],
    )
    def test_read_request_refuses_bad_framing(self, raw):
        from repro.service.errors import BadRequestError

        with pytest.raises(BadRequestError):
            read_request(io.BytesIO(raw))

    def test_read_request_reads_back_to_back_requests(self):
        stream = io.BytesIO(
            b"POST /a?x=1 HTTP/1.1\r\ncontent-length: 2\r\n\r\n{}"
            b"GET /b HTTP/1.1\r\nconnection: close\r\n\r\n"
        )
        first = read_request(stream)
        assert (first.method, first.path, first.query, first.body) == (
            "POST", "/a", {"x": "1"}, b"{}"
        )
        second = read_request(stream)
        assert (second.path, second.keep_alive) == ("/b", False)
        assert read_request(stream) is None  # clean EOF between requests

    def test_parse_target(self):
        path, query = parse_target("/v1/x?a=1&b=two%20words")
        assert path == "/v1/x"
        assert query == {"a": "1", "b": "two words"}

    def test_response_encode_close(self):
        wire = Response.json({"ok": True}).encode(close=True)
        assert b"connection: close" in wire

    def test_request_json_object_guards(self):
        request = Request(method="POST", path="/x", body=b"[1,2]")
        from repro.service.errors import BadRequestError

        with pytest.raises(BadRequestError):
            request.json_object()

    def test_bearer_parsing(self):
        request = Request(
            method="GET",
            path="/x",
            headers={"authorization": "bearer  abc "},
        )
        assert request.auth_token == "abc"
        assert Request(method="GET", path="/x").auth_token is None
