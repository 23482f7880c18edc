"""``repro.obs`` — end-to-end observability for the four-phase pipeline.

Three complementary instruments, all wired through the engines so they see
every surface (the :class:`~repro.equivalence.AnalysisSession` facade, the
interactive tool's screens, and direct registry/network calls):

* **Tracing** (:mod:`repro.obs.trace`) — hierarchical spans with wall
  time, self time and :class:`AnalysisCounters` deltas; exportable as
  JSONL or Chrome-trace JSON.  Disabled by default at near-zero cost;
  enable with :func:`tracing` / :func:`install_tracer`.
* **Metrics** (:mod:`repro.obs.metrics`) — a registry of counters, gauges
  and histograms that absorbs the engine's work counters
  (:class:`AnalysisCounters`).
* **Audit + replay** (:mod:`repro.obs.audit`, :mod:`repro.obs.replay`) —
  a JSONL event log of every DDA action, replayable into a fresh session
  with bitwise-identical integration results.

:mod:`repro.obs.report` renders per-phase summaries from any of the above.

Heavier submodules (audit/replay/report) load lazily so that the engines'
hot-path import — ``from repro.obs.trace import span`` — stays free of
import cycles.
"""

from repro.obs.metrics import (
    AnalysisCounters,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.trace import (
    Span,
    Tracer,
    get_tracer,
    install_tracer,
    span,
    tracing,
    uninstall_tracer,
    use_tracer,
)

__all__ = [
    # metrics
    "AnalysisCounters",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    # tracing
    "Span",
    "Tracer",
    "get_tracer",
    "install_tracer",
    "span",
    "tracing",
    "uninstall_tracer",
    "use_tracer",
    # telemetry plane (lazy): Prometheus exposition, SSE streaming,
    # request correlation
    "RollingLatency",
    "StreamHub",
    "StreamSubscription",
    "current_request_id",
    "parse_prometheus",
    "render_prometheus",
    "set_request_id",
    "sse_stream",
    # audit + replay (lazy; ``repro.obs.replay`` itself is the submodule —
    # import the function from it: ``from repro.obs.replay import replay``)
    "AuditEvent",
    "AuditLog",
    "ReplayOutcome",
    "schema_fingerprint",
    # reports (lazy)
    "summarize",
    "render_text",
    "render_json",
]

_LAZY = {
    "AuditEvent": ("repro.obs.audit", "AuditEvent"),
    "AuditLog": ("repro.obs.audit", "AuditLog"),
    "ReplayOutcome": ("repro.obs.replay", "ReplayOutcome"),
    "schema_fingerprint": ("repro.obs.replay", "schema_fingerprint"),
    "summarize": ("repro.obs.report", "summarize"),
    "render_text": ("repro.obs.report", "render_text"),
    "render_json": ("repro.obs.report", "render_json"),
    "RollingLatency": ("repro.obs.telemetry", "RollingLatency"),
    "StreamHub": ("repro.obs.telemetry", "StreamHub"),
    "StreamSubscription": ("repro.obs.telemetry", "StreamSubscription"),
    "current_request_id": ("repro.obs.telemetry", "current_request_id"),
    "parse_prometheus": ("repro.obs.telemetry", "parse_prometheus"),
    "render_prometheus": ("repro.obs.telemetry", "render_prometheus"),
    "set_request_id": ("repro.obs.telemetry", "set_request_id"),
    "sse_stream": ("repro.obs.telemetry", "sse_stream"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value  # cache so later lookups skip __getattr__
    return value
