"""The metrics registry: counters, gauges and histograms.

This is the quantitative half of :mod:`repro.obs`.  A
:class:`MetricsRegistry` holds named metrics — monotonically increasing
:class:`Counter`\\ s, point-in-time :class:`Gauge`\\ s and bucketed
:class:`Histogram`\\ s — and renders them all as one flat JSON-friendly
snapshot.

It also **absorbs** the pre-existing :class:`AnalysisCounters` (the work
counters the incremental analysis engine bumps on its hot paths).  Those
counters keep their plain-``int``-attribute implementation — an increment
on the propagation hot path must stay a single attribute store — but a
counter group registered via :meth:`MetricsRegistry.register_group`
appears in the registry snapshot under a dotted prefix, so one registry
describes everything a session did.

This module deliberately imports nothing from :mod:`repro` so the
low-level engines can depend on it without import cycles.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, Protocol

#: Default histogram bucket upper bounds (a 1-2-5 decade ladder).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
)


class Counter:
    """A monotonically increasing count.

    Thread-safe: the service dispatches request handlers on a thread
    pool, so concurrent :meth:`inc` calls must not lose updates (``+=``
    on an attribute is a read-modify-write, not atomic).  The engines'
    hot-path work counters stay on the lock-free
    :class:`AnalysisCounters` instead.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self.value += amount

    def reset(self) -> None:
        with self._lock:
            self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A bucketed distribution of observed values.

    ``buckets`` are inclusive upper bounds; every observation larger than
    the last bound lands in the overflow bucket.  The snapshot carries the
    per-bucket counts plus ``count``/``sum``, which is enough to render
    the propagation-step distributions the reports show.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total", "_lock")

    def __init__(
        self, name: str, buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> None:
        self.name = name
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name} needs at least one bucket")
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total: float = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[index] += 1
                    return
            self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def reset(self) -> None:
        with self._lock:
            self.bucket_counts = [0] * (len(self.buckets) + 1)
            self.count = 0
            self.total = 0

    def snapshot(self) -> dict[str, object]:
        labels = [f"le_{bound:g}" for bound in self.buckets] + ["overflow"]
        with self._lock:
            return {
                "count": self.count,
                "sum": self.total,
                "buckets": dict(zip(labels, self.bucket_counts)),
            }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name}: n={self.count}, sum={self.total})"


class CounterGroup(Protocol):
    """Anything exposing a flat ``snapshot()`` and a ``reset()``.

    :class:`AnalysisCounters` satisfies this, which is how the registry
    absorbs it without slowing its hot-path increments down.
    """

    def snapshot(self) -> Mapping[str, int]: ...  # pragma: no cover

    def reset(self) -> None: ...  # pragma: no cover


class MetricsRegistry:
    """Named metrics plus absorbed counter groups, one snapshot for all."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._groups: dict[str, CounterGroup] = {}
        self._lock = threading.Lock()

    # -- get-or-create accessors ---------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._lock:
                metric = self._counters.get(name)
                if metric is None:
                    self._reserve(name)
                    metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(name)
                if metric is None:
                    self._reserve(name)
                    metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, buckets: Iterable[float] | None = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(name)
                if metric is None:
                    self._reserve(name)
                    metric = self._histograms[name] = Histogram(
                        name,
                        buckets if buckets is not None else DEFAULT_BUCKETS,
                    )
        return metric

    def _reserve(self, name: str) -> None:
        if (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
            or name in self._groups
        ):
            raise ValueError(f"metric name {name!r} already used by another kind")

    # -- absorbed counter groups ----------------------------------------------

    def register_group(self, prefix: str, group: CounterGroup) -> None:
        """Expose an external counter group under ``prefix.*``.

        The group keeps owning its values (the engines keep bumping plain
        attributes); the registry just folds ``group.snapshot()`` into its
        own snapshot and fans ``reset()`` out to it.
        """
        with self._lock:
            self._reserve(prefix)
            self._groups[prefix] = group

    # -- iteration (the Prometheus renderer walks these) -----------------------

    def counters(self) -> dict[str, Counter]:
        with self._lock:
            return dict(self._counters)

    def gauges(self) -> dict[str, Gauge]:
        with self._lock:
            return dict(self._gauges)

    def histograms(self) -> dict[str, Histogram]:
        with self._lock:
            return dict(self._histograms)

    def groups(self) -> dict[str, CounterGroup]:
        with self._lock:
            return dict(self._groups)

    # -- registry-wide operations ----------------------------------------------

    def snapshot(self) -> dict[str, object]:
        """Every metric value, flat, JSON-friendly, deterministic order."""
        counters = self.counters()
        gauges = self.gauges()
        histograms = self.histograms()
        groups = self.groups()
        data: dict[str, object] = {}
        for name in sorted(counters):
            data[name] = counters[name].value
        for name in sorted(gauges):
            data[name] = gauges[name].value
        for name in sorted(histograms):
            data[name] = histograms[name].snapshot()
        for prefix in sorted(groups):
            for field_name, value in groups[prefix].snapshot().items():
                data[f"{prefix}.{field_name}"] = value
        return data

    def reset(self) -> None:
        """Zero every metric, including absorbed groups."""
        for metric in self.counters().values():
            metric.reset()
        for metric in self.gauges().values():
            metric.reset()
        for metric in self.histograms().values():
            metric.reset()
        for group in self.groups().values():
            group.reset()


@dataclass
class AnalysisCounters:
    """Work counters shared by a registry, its cached views and networks.

    Every :class:`~repro.equivalence.registry.EquivalenceRegistry` and
    :class:`~repro.assertions.network.AssertionNetwork` owns one (or shares
    one through an :class:`~repro.equivalence.AnalysisSession`).  The
    fields are plain ints — a hot-path increment is a single attribute
    store — and the whole group plugs into a :class:`MetricsRegistry` via
    :meth:`MetricsRegistry.register_group`.
    """

    #: registry mutations that bumped the version counter
    registry_mutations: int = 0
    #: OCS cells computed from the registry (cache misses)
    ocs_cells_recomputed: int = 0
    #: OCS cells served from the memoized matrix
    ocs_cache_hits: int = 0
    #: ACS views recomputed after an invalidation
    acs_rebuilds: int = 0
    #: ACS views served from cache
    acs_cache_hits: int = 0
    #: ranked candidate lists rebuilt (re-sorted) after an invalidation
    ordering_rebuilds: int = 0
    #: ranked candidate lists served from cache
    ordering_cache_hits: int = 0
    #: individual narrowing compositions performed during path consistency
    propagation_steps: int = 0
    #: retracts/respecifies repaired incrementally (affected region only)
    closure_incremental_retracts: int = 0
    #: retracts/respecifies served by a full network rebuild
    closure_full_rebuilds: int = 0
    #: pairs reset and re-derived by incremental closure repair
    closure_pairs_recomputed: int = 0
    #: full solver propagation runs (solve/trial/explain re-propagations)
    solver_runs: int = 0
    #: closure-kernel propagation steps of the solver's batch runs and
    #: of rolled-back what-if trials on a live network
    solver_propagation_steps: int = 0
    #: from-scratch consistency checks (QuickXplain probes, ``check``)
    solver_consistency_checks: int = 0
    #: minimal conflict sets computed by QuickXplain
    solver_conflicts_minimized: int = 0
    #: equivalence candidates scored and trial-propagated by the suggester
    solver_candidates_checked: int = 0
    #: schema edits applied through the evolution vocabulary
    evolution_edits_applied: int = 0
    #: schema edits rejected by the pre-apply conflict check
    evolution_edits_rejected: int = 0
    #: specified assertions retracted by destructive edits' repairs
    evolution_assertions_retracted: int = 0
    #: closure pairs reset and re-derived by edits' network repairs
    evolution_pairs_repropagated: int = 0
    #: clusters whose membership an edit's re-integration changed
    evolution_clusters_rebuilt: int = 0
    #: federation plans invalidated by localized evolve changes
    evolution_plans_invalidated: int = 0

    def reset(self) -> None:
        """Zero every counter (benchmarks call this between phases)."""
        for spec in fields(self):
            setattr(self, spec.name, 0)

    def snapshot(self) -> dict[str, int]:
        """The current counter values as a plain dict (JSON-friendly)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def __str__(self) -> str:
        parts = ", ".join(
            f"{name}={value}" for name, value in self.snapshot().items() if value
        )
        if not parts:
            return "AnalysisCounters(all zero)"
        return f"AnalysisCounters({parts})"
