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

Every export loads on first use (:mod:`repro._lazy`), so the engines'
hot-path import — ``from repro.obs.trace import span`` — pulls in no
heavier obs module and stays free of import cycles.
"""

from repro._lazy import lazy_exports

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
    # telemetry plane: Prometheus exposition, SSE streaming,
    # request correlation
    "RollingLatency",
    "StreamHub",
    "StreamSubscription",
    "current_request_id",
    "parse_prometheus",
    "render_prometheus",
    "set_request_id",
    "sse_stream",
    # audit + replay (``repro.obs.replay`` itself is the submodule —
    # import the function from it: ``from repro.obs.replay import replay``)
    "AuditEvent",
    "AuditLog",
    "ReplayOutcome",
    "schema_fingerprint",
    # reports
    "summarize",
    "render_text",
    "render_json",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AnalysisCounters": "repro.obs.metrics",
        "Counter": "repro.obs.metrics",
        "Gauge": "repro.obs.metrics",
        "Histogram": "repro.obs.metrics",
        "MetricsRegistry": "repro.obs.metrics",
        "Span": "repro.obs.trace",
        "Tracer": "repro.obs.trace",
        "get_tracer": "repro.obs.trace",
        "install_tracer": "repro.obs.trace",
        "span": "repro.obs.trace",
        "tracing": "repro.obs.trace",
        "uninstall_tracer": "repro.obs.trace",
        "use_tracer": "repro.obs.trace",
        "AuditEvent": "repro.obs.audit",
        "AuditLog": "repro.obs.audit",
        "ReplayOutcome": "repro.obs.replay",
        "schema_fingerprint": "repro.obs.replay",
        "summarize": "repro.obs.report",
        "render_text": "repro.obs.report",
        "render_json": "repro.obs.report",
        "RollingLatency": "repro.obs.telemetry",
        "StreamHub": "repro.obs.telemetry",
        "StreamSubscription": "repro.obs.telemetry",
        "current_request_id": "repro.obs.telemetry",
        "parse_prometheus": "repro.obs.telemetry",
        "render_prometheus": "repro.obs.telemetry",
        "set_request_id": "repro.obs.telemetry",
        "sse_stream": "repro.obs.telemetry",
    },
)
