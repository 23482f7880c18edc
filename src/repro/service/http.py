"""Minimal HTTP/1.1 framing over blocking sockets — no dependencies.

The container ships no ASGI framework, so the service speaks HTTP
directly: request-line + headers + ``Content-Length`` body in,
status-line + headers + JSON body out.  The subset is deliberately
small — no chunked uploads, no multipart, no TLS — because every
endpoint exchanges small JSON documents; anything outside the subset
gets a clean 400/413 rather than undefined behaviour.

The server (:class:`repro.service.app.ServiceServer`) gives each
connection one thread: :func:`read_request` blocks on the connection's
buffered file until a whole request has arrived, and the reply is
written with one ``sendall``.

:class:`Request` / :class:`Response` are also the in-process test
surface: ``ServiceApp.dispatch`` takes a :class:`Request` and returns a
:class:`Response`, so route tests never need a socket.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Iterator
from urllib.parse import parse_qsl, unquote, urlsplit

from repro.service.errors import BadRequestError

#: largest accepted request body (a schema DDL is a few KB; 4 MiB is generous)
MAX_BODY_BYTES = 4 * 1024 * 1024
#: largest accepted request head (request line + headers)
MAX_HEAD_BYTES = 64 * 1024

REASONS = {
    200: "OK",
    201: "Created",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Any:
        """The body as JSON; ``{}`` when empty.  Raises 400-shaped errors."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}")

    def json_object(self) -> dict[str, Any]:
        """The body as a JSON object (the common endpoint contract)."""
        payload = self.json()
        if not isinstance(payload, dict):
            raise BadRequestError("request body must be a JSON object")
        return payload

    @property
    def auth_token(self) -> str | None:
        """The bearer token, if the request carries one."""
        header = self.headers.get("authorization", "")
        scheme, _, token = header.partition(" ")
        if scheme.lower() == "bearer" and token.strip():
            return token.strip()
        return None

    @property
    def keep_alive(self) -> bool:
        """Whether the client wants the connection kept open."""
        return self.headers.get("connection", "").lower() != "close"


@dataclass
class Response:
    """One HTTP response; :meth:`encode` renders the bytes on the wire."""

    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        return cls(
            status=status,
            headers={"content-type": "application/json; charset=utf-8"},
            body=body,
        )

    def json_payload(self) -> Any:
        """Decode the body back to JSON (test convenience)."""
        return json.loads(self.body) if self.body else None

    def encode(self, *, close: bool = False) -> bytes:
        reason = REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("content-length", str(len(self.body)))
        headers.setdefault("connection", "close" if close else "keep-alive")
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("latin-1") + self.body


@dataclass
class StreamingResponse:
    """A response whose body is produced incrementally (SSE endpoints).

    ``chunks`` is a **blocking** byte iterator; the server pulls it on
    the connection's own thread and writes each chunk with ``sendall``
    as it arrives.  There is no ``Content-Length`` — the connection
    closes when the iterator is exhausted, which is how HTTP/1.1
    delimits the body.  In-process tests iterate ``chunks`` directly, no
    socket needed.  The server always calls :meth:`close` when the
    stream ends, so generator cleanup (unsubscribe, unpin) runs also
    when the client hangs up mid-stream; a test that abandons a stream
    early must do the same.
    """

    chunks: "Iterator[bytes]"
    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)

    @classmethod
    def sse(
        cls, chunks: "Iterator[bytes]", status: int = 200
    ) -> "StreamingResponse":
        return cls(
            chunks=chunks,
            status=status,
            headers={
                "content-type": "text/event-stream; charset=utf-8",
                "cache-control": "no-cache",
                "x-accel-buffering": "no",
            },
        )

    def encode_head(self) -> bytes:
        """Status line + headers only; the body streams afterwards."""
        reason = REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        headers = dict(self.headers)
        headers.setdefault("connection", "close")
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def close(self) -> None:
        """Abandon the stream; runs the generator's cleanup."""
        closer = getattr(self.chunks, "close", None)
        if closer is not None:
            closer()


def parse_target(target: str) -> tuple[str, dict[str, str]]:
    """Split a request target into a decoded path and a flat query dict."""
    parts = urlsplit(target)
    query = {key: value for key, value in parse_qsl(parts.query)}
    return unquote(parts.path), query


def read_request(
    rfile: BinaryIO, *, max_body: int = MAX_BODY_BYTES
) -> Request | None:
    """Read one request off a connection's buffered file.

    Blocks until the whole request has arrived; returns ``None`` on a
    clean EOF between requests.  Raises :class:`BadRequestError` on
    malformed framing — the caller answers 400 and closes.
    """
    head = b""
    # the head ends at the first CRLFCRLF, which always closes a line
    while not head.endswith(b"\r\n\r\n"):
        line = rfile.readline(MAX_HEAD_BYTES + 1 - len(head))
        if not line:
            if not head:
                return None  # clean close between requests
            raise BadRequestError("truncated request head")
        head += line
        if len(head) > MAX_HEAD_BYTES:
            raise BadRequestError("request head too large")
    try:
        text = head.decode("latin-1")
    except UnicodeDecodeError:  # pragma: no cover - latin-1 never fails
        raise BadRequestError("undecodable request head")
    request_line, _, header_block = text.partition("\r\n")
    pieces = request_line.split()
    if len(pieces) != 3:
        raise BadRequestError(f"malformed request line {request_line!r}")
    method, target, version = pieces
    if not version.startswith("HTTP/1."):
        raise BadRequestError(f"unsupported protocol {version!r}")
    headers: dict[str, str] = {}
    for line in header_block.split("\r\n"):
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise BadRequestError(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    if "transfer-encoding" in headers:
        raise BadRequestError("chunked request bodies are not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise BadRequestError(f"bad content-length {length_text!r}")
    if length < 0 or length > max_body:
        raise BadRequestError("request body too large")
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise BadRequestError("truncated request body")
    path, query = parse_target(target)
    return Request(
        method=method.upper(),
        path=path,
        query=query,
        headers=headers,
        body=body,
    )


__all__ = [
    "MAX_BODY_BYTES",
    "Request",
    "Response",
    "StreamingResponse",
    "parse_target",
    "read_request",
]
