"""Span wrappers around each layer's public functions, and their summary.

:func:`install_library` and :func:`install_service` patch each layer's
public functions so that every call opens a span on the calling
thread's :mod:`repro.obs` tracer.  The program's own spans
(``phase2.*``, ``phase3.*``, ``phase4.*``, ``solver.*``,
``service.session.*``) land in the same span tree, so a layer's self
time is its spans' duration minus their children's.

Only traced runs call them; untraced runs never do, so they measure
the original, unwrapped functions.  Spans stay in the tracers' memory
until the run ends.

:func:`summarize` turns a list of finished spans into the per-layer
metrics named in ``perfbench/README.md``.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Any, Iterable

from repro import faults
from repro.dictionary.store import DataDictionary
from repro.equivalence.session import AnalysisSession
from repro.kernel.kernel import Kernel
from repro.kernel.wal import WriteAheadLog, encode_record
from repro.obs.trace import Span, Tracer, get_tracer, use_tracer
from repro.tool.session import ToolSession

from measure import quantile

#: span-name prefix -> layer whose self time the span counts towards
LAYER_OF_PREFIX = (
    ("app.", "app"),
    ("auth.", "auth"),
    ("manager.", "manager"),
    ("service.session.", "manager"),
    ("tool.", "storage"),
    ("dictionary.", "storage"),
    ("storage.", "storage"),
    ("kernel.", "kernel"),
    ("wal.", "wal"),
    ("session.declare", "equivalence"),
    ("session.candidates", "equivalence"),
    ("phase2.", "equivalence"),
    ("session.specify", "assertions"),
    ("session.retract", "assertions"),
    ("phase3.", "assertions"),
    ("session.integrate", "integration"),
    ("phase4.", "integration"),
    ("solver.", "solver"),
)

#: every layer reported in the self-time breakdown
LAYERS = (
    "app", "auth", "manager", "storage", "kernel", "wal",
    "equivalence", "assertions", "integration", "solver",
)

_local = threading.local()


def layer_of(name: str) -> str:
    for prefix, layer in LAYER_OF_PREFIX:
        if name.startswith(prefix):
            return layer
    return "other"


def _wrap(owner: Any, attr: str, name: str, after=None) -> None:
    """Time ``owner.attr`` as span ``name``; ``after(span, result)`` adds attrs."""
    raw = owner.__dict__[attr]
    is_classmethod = isinstance(raw, classmethod)
    original = raw.__func__ if is_classmethod else raw

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if tracer is None:
            return original(*args, **kwargs)
        with tracer.span(name) as record:
            result = original(*args, **kwargs)
            if after is not None:
                after(record, args, result)
            return result

    setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)


def _wrap_module_function(module: Any, attr: str, name: str) -> None:
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if tracer is None:
            return original(*args, **kwargs)
        with tracer.span(name):
            return original(*args, **kwargs)

    setattr(module, attr, wrapper)


def _wrap_kernel_unit(attr: str, rollback_on_error: bool) -> None:
    """Time the outermost ``Kernel.group``/``Kernel.transaction`` per thread.

    Commit units nest (a transaction inside a group joins it), so only
    the outermost one on a thread opens a span: ``kernel.txn.count``
    counts commit units, not nesting levels.
    """
    original = Kernel.__dict__[attr]
    name = f"kernel.{attr}"

    @contextmanager
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracer = get_tracer()
        if tracer is None or getattr(_local, "kernel_depth", 0):
            with original(*args, **kwargs) as value:
                yield value
            return
        _local.kernel_depth = 1
        try:
            with tracer.span(name) as record:
                try:
                    with original(*args, **kwargs) as value:
                        yield value
                except BaseException:
                    if rollback_on_error:
                        record.attrs["rollback"] = True
                    raise
        finally:
            _local.kernel_depth = 0

    setattr(Kernel, attr, wrapper)


def _after_open(record: Span, args, session: ToolSession) -> None:
    report = session.last_recovery
    record.attrs["events_replayed"] = (
        report.events_replayed if report is not None else 0
    )


def _after_wal_append(record: Span, args, result) -> None:
    record.attrs["bytes"] = len(encode_record(args[1]))


def install_library() -> None:
    """Wrap the in-process layers a DDA sitting goes through."""
    for attr, name in (
        ("declare_equivalent", "session.declare"),
        ("candidate_pairs", "session.candidates"),
        ("specify", "session.specify"),
        ("retract", "session.retract"),
        ("integrate", "session.integrate"),
    ):
        _wrap(AnalysisSession, attr, name)
    _wrap_kernel_unit("group", rollback_on_error=False)
    _wrap_kernel_unit("transaction", rollback_on_error=True)
    _wrap(WriteAheadLog, "append", "wal.append", after=_after_wal_append)
    _wrap(ToolSession, "open", "tool.open", after=_after_open)
    _wrap(ToolSession, "save", "tool.save")
    _wrap(DataDictionary, "save", "dictionary.save")
    _wrap(DataDictionary, "load", "dictionary.load")
    _wrap_module_function(faults, "replace", "storage.replace")
    _wrap_module_function(faults, "fsync_dir", "storage.fsync_dir")


class SpanSink:
    """Finished request span trees, collected from every server thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()

    def extend(self, spans: Iterable[Span]) -> None:
        with self._lock:
            self.spans.extend(spans)


def install_service(sink: SpanSink) -> None:
    """Wrap the service layers as well; each request gets its own tracer.

    A fresh tracer per request keeps span stacks per thread and keeps
    the telemetry plane's per-request span sink from piling up on a
    long-lived tracer.
    """
    from repro.service import app as app_module
    from repro.service.app import ServiceApp
    from repro.service.auth import TenantAuth
    from repro.service.manager import SessionManager

    install_library()
    _wrap(TenantAuth, "authenticate", "auth.authenticate")

    read_request = app_module.read_request

    @functools.wraps(read_request)
    async def stamped_read_request(*args, **kwargs):
        request = await read_request(*args, **kwargs)
        if request is not None:
            request.bench_read_end = time.perf_counter()
        return request

    app_module.read_request = stamped_read_request

    dispatch = ServiceApp.dispatch

    @functools.wraps(dispatch)
    def traced_dispatch(self, request):
        entered = time.perf_counter()
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.span("app.dispatch") as record:
                record.attrs["queue_s"] = entered - getattr(
                    request, "bench_read_end", entered
                )
                response = dispatch(self, request)
        sink.extend(tracer.spans)
        return response

    ServiceApp.dispatch = traced_dispatch

    acquire = SessionManager.acquire

    @contextmanager
    @functools.wraps(acquire)
    def traced_acquire(self, tenant, session_id):
        tracer = get_tracer()
        if tracer is None:
            with acquire(self, tenant, session_id) as session:
                yield session
            return
        borrowed = acquire(self, tenant, session_id)
        with tracer.span("manager.acquire"):
            session = borrowed.__enter__()
        before = session.analysis.counters.snapshot()
        error: tuple = (None, None, None)
        try:
            yield session
        except BaseException as exc:
            error = (type(exc), exc, exc.__traceback__)
            raise
        finally:
            after = session.analysis.counters.snapshot()
            with tracer.span("manager.release") as record:
                record.attrs["counters"] = {
                    key: after[key] - before.get(key, 0)
                    for key in after
                    if after[key] != before.get(key, 0)
                }
                borrowed.__exit__(*error)

    SessionManager.acquire = traced_acquire


def _mean_ms(durations: list[float]) -> float:
    return 1e3 * sum(durations) / len(durations) if durations else 0.0


def summarize(
    spans: list[Span],
    *,
    counters: dict[str, int],
    e2e_s: float,
    operations: int,
    client_latencies: list[float] | None = None,
    derived: int = 0,
    conflicts: int = 0,
    bytes_per_session: float = 0.0,
    overhead_pct: float = 0.0,
) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run, as ``name -> (value, unit)``.

    ``counters`` are the :class:`~repro.obs.metrics.AnalysisCounters`
    totals over the traced work, ``e2e_s`` its end-to-end wall time
    (summed client latency for the service), ``operations`` the DDA
    calls or requests it made.
    """
    by_name: dict[str, list[Span]] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        layer = layer_of(span.name)
        if layer in self_by_layer:
            self_by_layer[layer] += span.self_time

    def durations(name: str) -> list[float]:
        return [span.duration for span in by_name.get(name, [])]

    def total_ms(name: str) -> float:
        return 1e3 * sum(durations(name))

    def count(name: str) -> int:
        return len(by_name.get(name, []))

    specify = durations("phase3.closure.specify")
    kernel_units = durations("kernel.group") + durations("kernel.transaction")
    rollbacks = sum(
        1 for span in by_name.get("kernel.transaction", [])
        if span.attrs.get("rollback")
    )
    appends = by_name.get("wal.append", [])
    opens = by_name.get("service.session.rehydrate", [])
    # inside the measured window only rehydration opens a ToolSession
    tool_opens = by_name.get("tool.open", [])
    acquires = count("manager.acquire")
    dispatches = by_name.get("app.dispatch", [])
    queue = [span.attrs.get("queue_s", 0.0) for span in dispatches]
    auth = durations("auth.authenticate")
    ocs_lookups = counters.get("ocs_cells_recomputed", 0) + counters.get(
        "ocs_cache_hits", 0
    )
    steps = counters.get("propagation_steps", 0)
    per_op = max(1, operations)
    attributed = sum(self_by_layer.values())
    residual = 0.0
    if client_latencies:
        residual = _mean_ms(client_latencies) - _mean_ms(queue) - _mean_ms(
            durations("app.dispatch")
        )

    metrics: dict[str, tuple[float, str]] = {
        "registry.declare_ms": (total_ms("phase2.registry.declare_equivalent"), "ms"),
        "ocs.cells_recomputed": (counters.get("ocs_cells_recomputed", 0), "count"),
        "ocs.hit_ratio": (
            counters.get("ocs_cache_hits", 0) / ocs_lookups if ocs_lookups else 0.0,
            "ratio",
        ),
        "ordering.rank_ms": (total_ms("phase2.ordering.rank"), "ms"),
        "closure.specify_ms": (1e3 * sum(specify), "ms"),
        "closure.specify_p99_ms": (
            1e3 * quantile(specify, 0.99) if specify else 0.0, "ms"
        ),
        "closure.retract_ms": (total_ms("phase3.closure.retract"), "ms"),
        "closure.propagation_steps": (steps, "count"),
        "closure.derived_per_step": (derived / steps if steps else 0.0, "ratio"),
        "closure.conflicts": (conflicts, "count"),
        "integrate.ms": (total_ms("session.integrate"), "ms"),
        "solver.suggest_ms": (_mean_ms(durations("solver.suggest")), "ms"),
        "kernel.txn_ms": (_mean_ms(kernel_units), "ms"),
        "kernel.txn.count": (len(kernel_units), "count"),
        "kernel.rollback.count": (rollbacks, "count"),
        "wal.append_ms": (_mean_ms([span.duration for span in appends]), "ms"),
        "wal.append.count": (len(appends), "count"),
        "wal.bytes_per_append": (
            sum(span.attrs.get("bytes", 0) for span in appends) / len(appends)
            if appends else 0.0,
            "B",
        ),
        "dictionary.save_ms": (_mean_ms(durations("dictionary.save")), "ms"),
        "dictionary.load_ms": (_mean_ms(durations("dictionary.load")), "ms"),
        "storage.replace.count": (count("storage.replace"), "count"),
        "storage.fsync_dir.count": (count("storage.fsync_dir"), "count"),
        "storage.bytes_per_session": (bytes_per_session, "B"),
        "manager.acquire_ms": (_mean_ms(durations("manager.acquire")), "ms"),
        "manager.hit_ratio": (
            (acquires - len(opens)) / acquires if acquires else 0.0, "ratio"
        ),
        "manager.rehydrate.count": (len(opens), "count"),
        "manager.rehydrate_ms": (_mean_ms([span.duration for span in opens]), "ms"),
        "manager.evict.count": (count("service.session.evict"), "count"),
        "manager.evict_ms": (_mean_ms(durations("service.session.evict")), "ms"),
        "recovery.events_replayed": (
            sum(span.attrs.get("events_replayed", 0) for span in tool_opens)
            / len(tool_opens) if tool_opens else 0.0,
            "count",
        ),
        "app.queue_ms": (_mean_ms(queue), "ms"),
        "app.dispatch_ms": (_mean_ms(durations("app.dispatch")), "ms"),
        "auth.authenticate_us": (1e3 * _mean_ms(auth), "us"),
        "http.residual_ms": (residual, "ms"),
    }
    for layer in LAYERS:
        metrics[f"self.{layer}_ms"] = (1e3 * self_by_layer[layer] / per_op, "ms")
    metrics["self.unattributed_ms"] = (1e3 * (e2e_s - attributed) / per_op, "ms")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return metrics


def count_metrics(metrics: dict[str, tuple[float, str]]) -> dict[str, float]:
    """The count-type metrics, which must repeat exactly for one seed."""
    return {
        name: value
        for name, (value, unit) in metrics.items()
        if unit == "count" and name != "recovery.events_replayed"
    }


def spans_from_dicts(records: list[dict[str, Any]]) -> list[Span]:
    """Rebuild :class:`Span` objects from :func:`span_to_dict` records."""
    spans = []
    for record in records:
        span = Span(0, None, record["name"], 0, record["start"], record.get("attrs", {}))
        span.end = record["end"]
        span.children_time = record["children"]
        spans.append(span)
    return spans


def span_to_dict(span: Span) -> dict[str, Any]:
    """What :func:`summarize` needs of a span, JSON-ready."""
    record = {
        "name": span.name,
        "start": span.start,
        "end": span.end,
        "children": span.children_time,
    }
    attrs = {
        key: value for key, value in span.attrs.items()
        if isinstance(value, (int, float, bool, dict))
    }
    if attrs:
        record["attrs"] = attrs
    return record
