"""The federated query engine facade.

:class:`FederationEngine` ties the subsystem together: the cached
:class:`~repro.federation.planner.QueryPlanner`, the concurrent
:class:`~repro.federation.executor.FederationExecutor` and the
assertion-aware merger (:func:`~repro.federation.merge.merge_legs`).
One call does everything::

    engine = FederationEngine.for_stores(
        mappings, stores, integrated_schema, object_network=network
    )
    result = engine.query("select Name, GPA from Student")
    result.rows      # the oracle-equal merged answer
    result.health    # what every component did
    result.conflicts # cross-component disagreements about one entity

On a healthy run ``result.rows`` equals
:func:`repro.data.federated_answer` for the same request — the engine
adds concurrency, fault tolerance and explainability, never different
answers.  When components fail the engine degrades to the live subset
(``result.health.degraded``) instead of raising, unless the policy says
otherwise.

Everything is instrumented: ``federation.plan`` / ``federation.fanout``
/ ``federation.component`` / ``federation.merge`` spans when a tracer is
installed, and counters/histograms on the engine's metrics registry
(``federation.plan.hit``/``.miss``, ``federation.leg.ok``/``.failed``,
``federation.retries``, ``federation.timeout``,
``federation.breaker.skipped``, ``federation.latency.<component>``,
``federation.rows``, ``federation.conflicts``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.data.instances import InstanceStore
from repro.ecr.schema import Schema
from repro.federation.backends import ComponentBackend, InstanceBackend
from repro.federation.executor import (
    ExecutionPolicy,
    FederationExecutor,
)
from repro.federation.health import FederationHealth
from repro.federation.merge import MergeConflict, merge_legs
from repro.federation.plan import FederatedPlan
from repro.federation.planner import QueryPlanner
from repro.integration.mappings import SchemaMapping
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.query.ast import Request
from repro.query.parser import parse_request

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.assertions.network import AssertionNetwork
    from repro.equivalence.registry import EquivalenceRegistry


@dataclass
class FederationResult:
    """Everything one federated query produced."""

    rows: list[tuple]
    plan: FederatedPlan
    health: FederationHealth
    conflicts: list[MergeConflict] = field(default_factory=list)
    #: rows removed by duplicate elimination / subsumption
    eliminated: int = 0

    @property
    def ok(self) -> bool:
        return self.health.ok

    @property
    def degraded(self) -> bool:
        return self.health.degraded

    def summary(self) -> str:
        """One line for screens and audit records."""
        line = (
            f"{len(self.rows)} row(s) via {self.plan.strategy} over "
            f"{len(self.plan.legs)} leg(s); {self.health.summary()}"
        )
        if self.conflicts:
            line += f"; {len(self.conflicts)} conflict(s)"
        return line


class FederationEngine:
    """Plans, fans out and merges global requests over component backends."""

    def __init__(
        self,
        planner: QueryPlanner,
        executor: FederationExecutor,
        *,
        metrics: MetricsRegistry | None = None,
        reconcile_entities: bool = False,
    ) -> None:
        self.planner = planner
        self.executor = executor
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.reconcile_entities = reconcile_entities
        if planner.metrics is None:
            planner.metrics = self.metrics
        if executor.metrics is None:
            executor.metrics = self.metrics

    @classmethod
    def for_stores(
        cls,
        mappings: dict[str, SchemaMapping],
        stores: dict[str, InstanceStore],
        integrated_schema: Schema | None = None,
        *,
        object_network: "AssertionNetwork | None" = None,
        registry: "EquivalenceRegistry | None" = None,
        policy: ExecutionPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        reconcile_entities: bool = False,
    ) -> "FederationEngine":
        """An engine over in-memory component stores (the common setup)."""
        backends: dict[str, ComponentBackend] = {
            name: InstanceBackend(store) for name, store in stores.items()
        }
        return cls.for_backends(
            mappings,
            backends,
            integrated_schema,
            object_network=object_network,
            registry=registry,
            policy=policy,
            metrics=metrics,
            reconcile_entities=reconcile_entities,
        )

    @classmethod
    def for_backends(
        cls,
        mappings: dict[str, SchemaMapping],
        backends: dict[str, ComponentBackend],
        integrated_schema: Schema | None = None,
        *,
        object_network: "AssertionNetwork | None" = None,
        registry: "EquivalenceRegistry | None" = None,
        policy: ExecutionPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        reconcile_entities: bool = False,
    ) -> "FederationEngine":
        """An engine over arbitrary (sqlite, flaky, remote) backends."""
        shared = metrics if metrics is not None else MetricsRegistry()
        planner = QueryPlanner(
            mappings,
            integrated_schema,
            object_network=object_network,
            registry=registry,
            metrics=shared,
        )
        executor = FederationExecutor(backends, policy, metrics=shared)
        return cls(
            planner,
            executor,
            metrics=shared,
            reconcile_entities=reconcile_entities,
        )

    def close(self) -> None:
        """Detach the planner from the registry (idempotent)."""
        self.planner.close()

    # -- queries -----------------------------------------------------------------

    def plan(self, request: Request | str) -> FederatedPlan:
        """The (cached) plan for a request, without executing it."""
        return self.planner.plan(self._coerce(request))

    def explain(self, request: Request | str) -> str:
        """The plan's human-readable rendering."""
        return self.plan(request).explain()

    def query(self, request: Request | str) -> FederationResult:
        """Plan, fan out, merge: the full federated answer."""
        plan = self.plan(request)
        execution = self.executor.execute(plan)
        with span(
            "federation.merge",
            strategy=str(plan.strategy),
            legs=len(plan.legs),
        ):
            outcome = merge_legs(
                plan,
                execution.leg_rows,
                reconcile_entities=self.reconcile_entities,
            )
        self.metrics.counter("federation.rows").inc(len(outcome.rows))
        if outcome.conflicts:
            self.metrics.counter("federation.conflicts").inc(
                len(outcome.conflicts)
            )
        return FederationResult(
            rows=outcome.rows,
            plan=plan,
            health=execution.health,
            conflicts=outcome.conflicts,
            eliminated=outcome.eliminated,
        )

    @staticmethod
    def _coerce(request: Request | str) -> Request:
        if isinstance(request, str):
            return parse_request(request)
        return request
