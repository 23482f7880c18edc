"""Unit tests for the telemetry plane: exposition, streaming, correlation."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    RollingLatency,
    StreamHub,
    accept_request_id,
    current_request_id,
    labeled,
    metric_name,
    new_request_id,
    parse_prometheus,
    render_prometheus,
    set_request_id,
    split_series,
    sse_frame,
    sse_stream,
)

# -- request correlation ----------------------------------------------------------


def test_request_ids_are_fresh_and_well_formed():
    first, second = new_request_id(), new_request_id()
    assert first != second
    assert first.startswith("req-")
    assert accept_request_id(first) == first


def test_accept_request_id_rejects_malformed_candidates():
    for bad in (None, "", "has space", "x" * 200, "naughty\nnewline"):
        accepted = accept_request_id(bad)
        assert accepted != bad
        assert accepted.startswith("req-")


def test_request_id_is_thread_local():
    set_request_id("req-main")
    seen = {}

    def worker():
        seen["before"] = current_request_id()
        set_request_id("req-worker")
        seen["after"] = current_request_id()

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert seen == {"before": None, "after": "req-worker"}
    assert current_request_id() == "req-main"
    set_request_id(None)
    assert current_request_id() is None


# -- rolling latency --------------------------------------------------------------


def test_rolling_latency_exact_quantiles():
    rolling = RollingLatency(window=100)
    for value in range(1, 101):  # 0.01 .. 1.00
        rolling.observe(("t", "/r"), value / 100)
    quantiles = rolling.quantiles(("t", "/r"))
    assert quantiles[0.5] == pytest.approx(0.50)
    assert quantiles[0.95] == pytest.approx(0.95)
    assert quantiles[0.99] == pytest.approx(0.99)


def test_rolling_latency_window_slides():
    rolling = RollingLatency(window=4)
    for value in (1.0, 1.0, 1.0, 1.0, 9.0, 9.0, 9.0, 9.0):
        rolling.observe(("k",), value)
    assert rolling.quantiles(("k",))[0.5] == 9.0
    assert rolling.quantiles(("missing",)) is None
    assert rolling.keys() == [("k",)]


# -- stream hub -------------------------------------------------------------------


def test_hub_fans_out_to_every_subscriber():
    hub = StreamHub(maxlen=8)
    a = hub.subscribe("k")
    b = hub.subscribe("k")
    other = hub.subscribe("other")
    assert hub.publish("k", {"seq": 1}) == 2
    assert a.pop(timeout=0.1) == {"seq": 1}
    assert b.pop(timeout=0.1) == {"seq": 1}
    assert other.pop(timeout=0.01) is None
    a.close()
    b.close()
    other.close()
    assert hub.subscriber_count() == 0


def test_slow_subscriber_drops_oldest_and_counts():
    hub = StreamHub(maxlen=3)
    slow = hub.subscribe("k")
    for seq in range(6):
        hub.publish("k", {"seq": seq})
    assert slow.dropped == 3
    assert hub.dropped_total() == 3
    survivors = [slow.pop(timeout=0.01)["seq"] for _ in range(3)]
    assert survivors == [3, 4, 5]  # newest retained, oldest shed
    slow.close()


def test_publish_to_unwatched_key_is_cheap_and_counts_nobody():
    hub = StreamHub()
    published = []
    hub.on_publish = published.append
    assert hub.publish("nobody", {"seq": 1}) == 0
    assert published == []  # hook only fires when somebody listened


# -- SSE framing ------------------------------------------------------------------


def test_sse_frame_wire_format():
    frame = sse_frame({"b": 2, "a": 1}, event="span", event_id=7)
    assert frame == b'id: 7\nevent: span\ndata: {"a":1,"b":2}\n\n'


def test_sse_stream_delivers_then_ends():
    hub = StreamHub()
    subscription = hub.subscribe("k")
    closed = []
    stream = sse_stream(
        subscription,
        event="kernel-event",
        max_events=2,
        on_close=lambda: closed.append(True),
    )
    hub.publish("k", {"seq": 1, "action": "a"})
    hub.publish("k", {"seq": 2, "action": "b"})
    chunks = list(stream)
    assert chunks[0].startswith(b":")  # open comment
    body = b"".join(chunks).decode()
    assert "event: kernel-event" in body
    assert '"action":"a"' in body and '"action":"b"' in body
    assert "event: end" in body
    assert '"sent": 2' in body or '"sent":2' in body
    assert closed == [True]
    assert subscription.closed


def test_sse_stream_abandonment_runs_cleanup():
    hub = StreamHub()
    subscription = hub.subscribe("k")
    closed = []
    stream = sse_stream(
        subscription, event="span", on_close=lambda: closed.append(True)
    )
    assert next(stream).startswith(b":")
    stream.close()  # client disconnected
    assert closed == [True]
    assert subscription.closed


def _drain_to_end(stream):
    list(stream)


@pytest.mark.parametrize(
    "pulled",
    [
        pytest.param(lambda stream: None, id="before-start"),
        pytest.param(lambda stream: next(stream), id="mid-stream"),
        pytest.param(_drain_to_end, id="at-end"),
    ],
)
def test_sse_stream_cleanup_runs_exactly_once(pulled):
    hub = StreamHub()
    subscription = hub.subscribe("k")
    closed = []
    stream = sse_stream(
        subscription,
        event="span",
        max_events=1,
        on_close=lambda: closed.append(True),
    )
    hub.publish("k", {"seq": 1})
    pulled(stream)
    stream.close()
    stream.close()
    assert closed == [True]
    assert subscription.closed
    assert hub.subscriber_count() == 0


def test_sse_stream_idle_timeout_and_heartbeat(monkeypatch):
    hub = StreamHub()
    subscription = hub.subscribe("k")
    clock = iter([0.0, 0.0, 0.05, 0.05, 0.2, 0.2, 0.2]).__next__
    chunks = list(
        sse_stream(
            subscription,
            event="span",
            idle_s=0.1,
            heartbeat_s=0.01,
            clock=clock,
        )
    )
    body = b"".join(chunks).decode()
    assert ": keep-alive" in body
    assert "event: end" in body


# -- label helpers ----------------------------------------------------------------


def test_labeled_is_canonical_and_escaped():
    series = labeled("repro_http_requests_total", route="/v1/x", code=200)
    assert series == 'repro_http_requests_total{code="200",route="/v1/x"}'
    # same labels, any kwarg order -> same series
    assert series == labeled(
        "repro_http_requests_total", code=200, route="/v1/x"
    )
    name, labels = split_series(series)
    assert name == "repro_http_requests_total"
    assert 'code="200"' in labels
    tricky = labeled("m_total", note='say "hi"\nback\\slash')
    assert "\\n" in tricky and '\\"' in tricky


def test_metric_name_sanitizes_dotted_names():
    assert metric_name("federation.leg.ok") == "repro_federation_leg_ok"
    assert metric_name("repro_already") == "repro_already"
    assert metric_name("with-dash.x") == "repro_with_dash_x"


# -- exposition round-trip --------------------------------------------------------


def test_render_parse_round_trip():
    registry = MetricsRegistry()
    registry.counter(
        labeled("repro_http_requests_total", route="/v1/stats", status=200)
    ).inc(3)
    registry.counter(
        labeled("repro_http_requests_total", route="/v1/about", status=200)
    ).inc(1)
    registry.gauge("repro_sessions_resident").set(2)
    histogram = registry.histogram(
        labeled("repro_http_request_duration_seconds", route="/v1/stats"),
        buckets=(0.1, 1.0),
    )
    histogram.observe(0.05)
    histogram.observe(0.5)
    histogram.observe(5.0)
    text = render_prometheus(registry)
    samples = parse_prometheus(text)  # raises on anything malformed
    assert (
        samples[
            'repro_http_requests_total{route="/v1/stats",status="200"}'
        ]
        == 3
    )
    assert samples["repro_sessions_resident"] == 2
    base = "repro_http_request_duration_seconds"
    # cumulative buckets: le=0.1 -> 1, le=1.0 -> 2, +Inf -> count
    assert samples[f'{base}_bucket{{route="/v1/stats",le="0.1"}}'] == 1
    assert samples[f'{base}_bucket{{route="/v1/stats",le="1"}}'] == 2
    assert samples[f'{base}_bucket{{route="/v1/stats",le="+Inf"}}'] == 3
    assert samples[f'{base}_count{{route="/v1/stats"}}'] == 3
    assert samples[f'{base}_sum{{route="/v1/stats"}}'] == pytest.approx(
        5.55
    )
    # exactly one TYPE line per family even with multiple series
    assert text.count("# TYPE repro_http_requests_total counter") == 1


def test_render_includes_absorbed_counter_groups():
    from repro.obs.metrics import AnalysisCounters

    registry = MetricsRegistry()
    counters = AnalysisCounters()
    counters.propagation_steps = 17
    registry.register_group("analysis", counters)
    samples = parse_prometheus(render_prometheus(registry))
    assert samples["repro_analysis_propagation_steps"] == 17


def test_parse_rejects_malformed_exposition():
    for bad in (
        "repro_x{unclosed 1",
        "repro_x 1\nrepro_x 2",  # duplicate sample
        "# TYPE repro_x counter\n# TYPE repro_x counter",  # dup TYPE
        "# TYPE repro_x nonsense\n",
        "repro_x notanumber",
        'repro_x{bad~name="v"} 1',
    ):
        with pytest.raises(ValueError):
            parse_prometheus(bad)


def test_parse_accepts_infinities():
    samples = parse_prometheus("repro_x +Inf\nrepro_y -Inf\n")
    assert samples["repro_x"] == math.inf
    assert samples["repro_y"] == -math.inf
