"""The live telemetry plane: exposition, streaming and request correlation.

Three cooperating facilities turn the in-process instruments of
:mod:`repro.obs` into things an *operator outside the process* can watch:

* **Prometheus text exposition** — :func:`render_prometheus` renders a
  :class:`~repro.obs.metrics.MetricsRegistry` (plus any absorbed counter
  groups) in the Prometheus ``text/plain; version=0.0.4`` format, with
  stable label sets encoded in the metric name
  (:func:`labeled`).  :func:`parse_prometheus` is the strict inverse the
  tests and the telemetry smoke gate use to prove the output is
  well-formed.

* **Bounded fan-out streaming** — a :class:`StreamHub` fans items pushed
  by publisher threads (request handlers, job workers, kernel-bus taps)
  out to any number of :class:`StreamSubscription`\\ s, each a bounded
  ring buffer with **drop-oldest backpressure** and a ``dropped``
  counter.  :func:`sse_stream` turns a subscription into a
  Server-Sent-Events byte iterator (the ``/v1/sessions/{id}/…/stream``
  endpoints).

* **Request correlation** — :func:`set_request_id` /
  :func:`current_request_id` bind one id to the current thread for the
  duration of a request (or a background job), so the access-log line,
  every tracer span, and every kernel event streamed over SSE carry the
  same ``X-Request-Id``.

* **Rolling latency** — :class:`RollingLatency` keeps the last *N*
  observations per label set and answers exact p50/p95/p99 over that
  window; the service exposes them as per-tenant/per-route gauges.

Everything here is stdlib-only and thread-safe; nothing imports the
service, so the module is usable from any embedding.
"""

from __future__ import annotations

import json
import math
import itertools
import re
import secrets
import threading
import time
from collections import deque
from typing import Any, Callable, Iterator

from repro.obs.metrics import MetricsRegistry

# ---------------------------------------------------------------------------
# request correlation
# ---------------------------------------------------------------------------

_REQUEST = threading.local()

#: accepted shape for a client-supplied ``X-Request-Id``
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


#: per-process entropy + atomic counter: ids are for correlation, not
#: secrecy, and a token_hex() per request is measurable on the hot path
_ID_PREFIX = secrets.token_hex(3)
_ID_COUNTER = itertools.count(1)


def new_request_id() -> str:
    """A fresh, URL-safe request id (``req-`` + 12 hex chars)."""
    return f"req-{_ID_PREFIX}{next(_ID_COUNTER) & 0xFFFFFF:06x}"


def accept_request_id(candidate: str | None) -> str:
    """The client's ``X-Request-Id`` if well-formed, else a fresh one."""
    if candidate and _REQUEST_ID_RE.match(candidate):
        return candidate
    return new_request_id()


def set_request_id(request_id: str | None) -> None:
    """Bind a request id to the current thread (``None`` clears it)."""
    _REQUEST.request_id = request_id


def current_request_id() -> str | None:
    """The request id bound to the current thread, if any."""
    return getattr(_REQUEST, "request_id", None)


# ---------------------------------------------------------------------------
# rolling latency windows (exact quantiles over the last N observations)
# ---------------------------------------------------------------------------


class RollingLatency:
    """Per-label-set rolling windows answering exact p50/p95/p99.

    Each key (e.g. ``(tenant, route)``) keeps the most recent ``window``
    observations in a deque; quantiles are computed over a sorted copy at
    read time.  Both sides are cheap at service scale — observation is an
    append under a lock, and scrapes are rare.
    """

    QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, window: int = 512) -> None:
        if window < 1:
            raise ValueError("window must be at least 1")
        self.window = window
        self._lock = threading.Lock()
        self._series: dict[tuple[str, ...], deque[float]] = {}

    def observe(self, key: tuple[str, ...], seconds: float) -> None:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = deque(maxlen=self.window)
            series.append(seconds)

    def quantiles(
        self, key: tuple[str, ...]
    ) -> dict[float, float] | None:
        """``{0.5: s, 0.95: s, 0.99: s}`` for the key, or ``None``."""
        with self._lock:
            series = self._series.get(key)
            if not series:
                return None
            ordered = sorted(series)
        result = {}
        for quantile in self.QUANTILES:
            index = max(0, math.ceil(quantile * len(ordered)) - 1)
            result[quantile] = ordered[index]
        return result

    def keys(self) -> list[tuple[str, ...]]:
        with self._lock:
            return list(self._series)


# ---------------------------------------------------------------------------
# bounded fan-out streaming
# ---------------------------------------------------------------------------


class StreamSubscription:
    """One consumer's bounded ring over a :class:`StreamHub` key.

    Publishers never block: when the ring is full the **oldest** item is
    dropped and :attr:`dropped` increments, so a stalled SSE client can
    fall behind but can never wedge a request handler or job worker.
    """

    def __init__(self, hub: "StreamHub", key: Any, maxlen: int) -> None:
        self._hub = hub
        self.key = key
        self._items: deque[Any] = deque(maxlen=maxlen)
        self._cond = threading.Condition()
        #: items discarded because the consumer fell behind
        self.dropped = 0
        self.closed = False
        #: when True, publishers never notify — the consumer polls on a
        #: timer instead.  A publish-side wake-up makes the consumer
        #: thread runnable *during* the request being traced, which on
        #: scarce cores preempts the very handler being measured; a
        #: lingering consumer doesn't need the wake-up at all.
        self.lazy = False

    def _push(self, item: Any) -> None:
        with self._cond:
            if self.closed:
                return
            if len(self._items) == self._items.maxlen:
                self._items.popleft()
                self.dropped += 1
            self._items.append(item)
            if not self.lazy:
                self._cond.notify_all()

    def _push_many(self, items: list[Any]) -> None:
        with self._cond:
            if self.closed:
                return
            for item in items:
                if len(self._items) == self._items.maxlen:
                    self._items.popleft()
                    self.dropped += 1
                self._items.append(item)
            if not self.lazy:
                self._cond.notify_all()

    def pop(self, timeout: float | None = None) -> Any | None:
        """The next item, blocking up to ``timeout``; ``None`` on none."""
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            if self._items:
                return self._items.popleft()
            return None

    def pop_batch(
        self, limit: int, timeout: float | None = None
    ) -> list[Any]:
        """Up to ``limit`` items: block for the first, drain the rest.

        Bursty publishers (one request can finish several spans) cost
        one consumer wake-up instead of one per item.
        """
        with self._cond:
            if not self._items:
                self._cond.wait(timeout)
            batch: list[Any] = []
            while self._items and len(batch) < limit:
                batch.append(self._items.popleft())
            return batch

    def close(self) -> None:
        """Detach from the hub and wake any blocked :meth:`pop`."""
        self._hub._unsubscribe(self)
        with self._cond:
            self.closed = True
            self._cond.notify_all()


class StreamHub:
    """Keyed fan-out: publishers push, per-key subscribers each get a copy.

    The service keeps two hubs — one for kernel/audit events, one for
    tracer spans — keyed by ``(tenant, session_id)``.  Publishing to a
    key nobody watches is one dict lookup; metrics hooks (``on_publish``
    / ``on_drop``) let the owner count streamed and dropped items.
    """

    def __init__(self, maxlen: int = 256) -> None:
        self.maxlen = maxlen
        self._lock = threading.Lock()
        self._subscribers: dict[Any, list[StreamSubscription]] = {}
        self.on_publish: Callable[[Any], None] | None = None

    def subscribe(self, key: Any) -> StreamSubscription:
        subscription = StreamSubscription(self, key, self.maxlen)
        with self._lock:
            self._subscribers.setdefault(key, []).append(subscription)
        return subscription

    def _unsubscribe(self, subscription: StreamSubscription) -> None:
        with self._lock:
            remaining = [
                existing
                for existing in self._subscribers.get(subscription.key, ())
                if existing is not subscription
            ]
            if remaining:
                self._subscribers[subscription.key] = remaining
            else:
                self._subscribers.pop(subscription.key, None)

    def publish(self, key: Any, item: Any) -> int:
        """Fan ``item`` out to the key's subscribers; returns how many."""
        with self._lock:
            targets = list(self._subscribers.get(key, ()))
        for subscription in targets:
            subscription._push(item)
        if targets and self.on_publish is not None:
            self.on_publish(key)
        return len(targets)

    def publish_many(self, key: Any, items: list[Any]) -> int:
        """Fan a burst out with one consumer wake-up per subscriber."""
        if not items:
            return 0
        with self._lock:
            targets = list(self._subscribers.get(key, ()))
        for subscription in targets:
            subscription._push_many(items)
        if targets and self.on_publish is not None:
            for _ in items:
                self.on_publish(key)
        return len(targets)

    def watched(self, key: Any) -> bool:
        """Cheap publisher pre-check: is anyone subscribed to ``key``?

        Lock-free on purpose — a stale answer only costs one skipped or
        wasted frame build, and publishers sit on hot paths.
        """
        return key in self._subscribers

    def any_watched(self) -> bool:
        """Lock-free check for *any* subscriber on *any* key."""
        return bool(self._subscribers)

    def watched_keys(self) -> tuple[Any, ...]:
        """Lock-free snapshot of the watched keys (may be stale)."""
        return tuple(self._subscribers)

    def subscriber_count(self, key: Any | None = None) -> int:
        with self._lock:
            if key is not None:
                return len(self._subscribers.get(key, ()))
            return sum(len(subs) for subs in self._subscribers.values())

    def dropped_total(self) -> int:
        with self._lock:
            return sum(
                subscription.dropped
                for subscribers in self._subscribers.values()
                for subscription in subscribers
            )


# ---------------------------------------------------------------------------
# Server-Sent Events framing
# ---------------------------------------------------------------------------


def sse_frame(
    data: dict[str, Any],
    *,
    event: str | None = None,
    event_id: int | str | None = None,
) -> bytes:
    """One ``text/event-stream`` frame: optional id/event + JSON data."""
    lines = []
    if event_id is not None:
        lines.append(f"id: {event_id}")
    if event is not None:
        lines.append(f"event: {event}")
    payload = json.dumps(data, sort_keys=True, separators=(",", ":"))
    lines.append(f"data: {payload}")
    return ("\n".join(lines) + "\n\n").encode("utf-8")


def sse_comment(text: str) -> bytes:
    return f": {text}\n\n".encode("utf-8")


def sse_stream(
    subscription: StreamSubscription,
    *,
    event: str,
    max_events: int | None = None,
    timeout_s: float | None = None,
    idle_s: float | None = None,
    heartbeat_s: float = 10.0,
    linger_s: float = 0.0,
    transform: Callable[[Any], dict[str, Any]] | None = None,
    on_close: Callable[[], None] | None = None,
    clock: Callable[[], float] = time.monotonic,
) -> Iterator[bytes]:
    """Turn a subscription into an SSE byte stream (a blocking generator).

    Each item popped from the subscription must be a JSON-ready dict
    carrying a ``seq`` key (used as the SSE ``id:``) — or, when
    ``transform`` is given, anything ``transform`` turns into such a
    dict.  The hook runs on the thread that pulls the stream, letting
    publishers enqueue cheap raw objects and defer serialisation to
    the consumer that asked for it.  The stream ends —
    with a final ``event: end`` frame summarizing delivery — when
    ``max_events`` items have been sent, ``timeout_s`` has elapsed, or no
    item arrived for ``idle_s`` seconds; with none of the three it runs
    until the client disconnects.  Heartbeat comments keep idle
    connections alive through proxies.  The subscription is closed and
    ``on_close`` runs exactly once, whether the stream ends normally, the
    consumer abandons it mid-stream, or it is closed before its first
    chunk (a server that could not write the response head).

    ``linger_s`` trades latency for throughput: the stream switches the
    subscription to lazy polling — publishers stop waking the consumer
    (a wake-up would preempt the very request being traced), and the
    stream instead drains the ring every ``linger_s`` seconds, writing
    each window as one chunk.  Zero means wake per publish and write
    immediately.
    """
    def chunks() -> Iterator[bytes]:
        sent = 0
        started = clock()
        last_item = started
        last_beat = started
        closed = False
        lazy = linger_s > 0
        if lazy:
            subscription.lazy = True

        def finish() -> None:
            nonlocal closed
            if not closed:
                closed = True
                subscription.close()
                if on_close is not None:
                    on_close()

        try:
            yield b""  # consumed by the priming ``next`` below
            yield sse_comment("stream open")
            while True:
                now = clock()
                if max_events is not None and sent >= max_events:
                    break
                if timeout_s is not None and now - started >= timeout_s:
                    break
                if idle_s is not None and now - last_item >= idle_s:
                    break
                wait = heartbeat_s
                if timeout_s is not None:
                    wait = min(wait, max(0.0, timeout_s - (now - started)))
                if idle_s is not None:
                    wait = min(wait, max(0.0, idle_s - (now - last_item)))
                if lazy:
                    # the timed poll IS the batching window: nobody
                    # notifies, so the wait sleeps it out in full and the
                    # drain below collects everything that accumulated
                    wait = min(wait, linger_s)
                limit = 256
                if max_events is not None:
                    limit = min(limit, max_events - sent)
                batch = subscription.pop_batch(limit, timeout=max(0.01, wait))
                if not batch:
                    if not lazy:
                        yield sse_comment("keep-alive")
                    elif now - last_beat >= heartbeat_s:
                        last_beat = now
                        yield sse_comment("keep-alive")
                    continue
                last_item = clock()
                last_beat = last_item
                frames = []
                for item in batch:
                    sent += 1
                    if transform is not None:
                        item = transform(item)
                    frames.append(
                        sse_frame(
                            item, event=event, event_id=item.get("seq", sent)
                        )
                    )
                yield b"".join(frames)
            yield sse_frame(
                {"sent": sent, "dropped": subscription.dropped},
                event="end",
            )
        finally:
            finish()

    stream = chunks()
    # Start the generator here: one closed before its first ``next``
    # never enters its ``try``, so its ``finally`` would not clean up.
    next(stream)
    return stream


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

#: the content type Prometheus scrapers expect
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# label values are quoted strings and may contain any character
# (including ``}`` — route patterns like ``/v1/sessions/{sid}`` do), so
# the label block is matched as a sequence of key="value" pairs rather
# than a naive "anything up to the first closing brace"
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>"
    r'(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*'
    r")\})?"
    r"\s+(?P<value>[^\s]+)$"
)
_LABEL_PAIR_RE = re.compile(
    r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
)


def labeled(name: str, **labels: Any) -> str:
    """Encode a labeled series as one registry metric name.

    The :class:`~repro.obs.metrics.MetricsRegistry` keys metrics by flat
    name; label sets ride inside the name in canonical (sorted) order so
    the same labels always address the same series::

        labeled("repro_http_requests_total", route="/v1/stats", code=200)
        -> 'repro_http_requests_total{code="200",route="/v1/stats"}'
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{_escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def split_series(series: str) -> tuple[str, str | None]:
    """``'name{labels}'`` → ``(name, labels-or-None)``."""
    if series.endswith("}") and "{" in series:
        name, _, inner = series.partition("{")
        return name, inner[:-1]
    return series, None


def metric_name(dotted: str) -> str:
    """A dotted internal metric name as a legal Prometheus name.

    ``federation.leg.ok`` → ``repro_federation_leg_ok`` — used when
    rendering metrics that were registered before the telemetry plane
    existed (the federation engine's counters, absorbed counter groups).
    Names already carrying the ``repro_`` prefix pass through untouched.
    """
    if dotted.startswith("repro_"):
        return dotted
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", dotted)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = f"m_{cleaned}" if cleaned else "m_unnamed"
    return f"repro_{cleaned}"


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def render_prometheus(
    registry: MetricsRegistry,
    *,
    timestamp: float | None = None,
) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4).

    * counters render with a ``# TYPE … counter`` header (names are
      expected to end in ``_total``; legacy dotted names are sanitized
      via :func:`metric_name`),
    * gauges render as ``gauge``,
    * histograms render as ``histogram`` with **cumulative** ``_bucket``
      samples (``le`` inclusive upper bounds plus ``+Inf``), ``_sum`` and
      ``_count``, and
    * absorbed counter groups render as counters under their prefix.

    Series sharing a base name are grouped under one ``# TYPE`` line, as
    the format requires.
    """
    families: dict[str, tuple[str, list[tuple[str, float]]]] = {}

    def add(kind: str, series: str, value: float) -> None:
        base, labels = split_series(series)
        base = metric_name(base)
        family = families.get(base)
        if family is None:
            family = families[base] = (kind, [])
        sample = base if labels is None else f"{base}{{{labels}}}"
        family[1].append((sample, value))

    for series, counter in sorted(registry.counters().items()):
        add("counter", series, counter.value)
    for series, gauge in sorted(registry.gauges().items()):
        add("gauge", series, gauge.value)
    for prefix, group in sorted(registry.groups().items()):
        for field_name, value in group.snapshot().items():
            add("counter", f"{prefix}.{field_name}", value)

    lines: list[str] = []
    for base in sorted(families):
        kind, samples = families[base]
        lines.append(f"# TYPE {base} {kind}")
        for sample, value in samples:
            lines.append(f"{sample} {_format_value(value)}")

    histogram_families: dict[str, list[tuple[str | None, Any]]] = {}
    for series, histogram in sorted(registry.histograms().items()):
        base, labels = split_series(series)
        histogram_families.setdefault(metric_name(base), []).append(
            (labels, histogram)
        )
    for base in sorted(histogram_families):
        lines.append(f"# TYPE {base} histogram")
        for labels, histogram in histogram_families[base]:
            prefix = "" if labels is None else f"{labels},"
            cumulative = 0
            with histogram._lock:
                per_bucket = list(histogram.bucket_counts)
                bounds = histogram.buckets
                total = histogram.total
                count = histogram.count
            for bound, bucket_count in zip(bounds, per_bucket):
                cumulative += bucket_count
                lines.append(
                    f"{base}_bucket"
                    f'{{{prefix}le="{_format_value(float(bound))}"}}'
                    f" {cumulative}"
                )
            lines.append(f'{base}_bucket{{{prefix}le="+Inf"}} {count}')
            suffix = "" if labels is None else f"{{{labels}}}"
            lines.append(
                f"{base}_sum{suffix} {_format_value(float(total))}"
            )
            lines.append(f"{base}_count{suffix} {count}")

    body = "\n".join(lines)
    return body + "\n" if body else ""


def parse_prometheus(text: str) -> dict[str, float]:
    """Strictly parse exposition text back to ``{series: value}``.

    Raises :class:`ValueError` on anything malformed — unknown line
    shapes, bad metric/label names, unparsable values, a ``# TYPE``
    redeclaration, or samples appearing before their family's ``TYPE``
    line when one exists elsewhere.  The telemetry smoke gate and the
    endpoint tests call this to prove ``/v1/metrics`` emits valid
    Prometheus text format.
    """
    samples: dict[str, float] = {}
    types: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE: {raw!r}")
            _, _, name, kind = parts
            if not _NAME_RE.match(name):
                raise ValueError(f"line {lineno}: bad metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                raise ValueError(f"line {lineno}: bad metric type {kind!r}")
            if name in types:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            types[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP/comments
        match = _SAMPLE_RE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample: {raw!r}")
        name = match.group("name")
        label_text = match.group("labels")
        if label_text:
            consumed = _LABEL_PAIR_RE.sub("", label_text).replace(",", "")
            if consumed.strip():
                raise ValueError(
                    f"line {lineno}: malformed labels: {label_text!r}"
                )
            for pair in _LABEL_PAIR_RE.finditer(label_text):
                if not _LABEL_RE.match(pair.group("key")):
                    raise ValueError(
                        f"line {lineno}: bad label name "
                        f"{pair.group('key')!r}"
                    )
        value_text = match.group("value")
        if value_text == "+Inf":
            value = math.inf
        elif value_text == "-Inf":
            value = -math.inf
        else:
            try:
                value = float(value_text)
            except ValueError:
                raise ValueError(
                    f"line {lineno}: bad sample value {value_text!r}"
                )
        series = line.rsplit(None, 1)[0]
        if series in samples:
            raise ValueError(f"line {lineno}: duplicate sample {series!r}")
        samples[series] = value
    return samples


__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "RollingLatency",
    "StreamHub",
    "StreamSubscription",
    "accept_request_id",
    "current_request_id",
    "labeled",
    "metric_name",
    "new_request_id",
    "parse_prometheus",
    "render_prometheus",
    "set_request_id",
    "split_series",
    "sse_comment",
    "sse_frame",
    "sse_stream",
]
