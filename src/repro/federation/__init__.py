"""Federated query execution over the integrated schema.

The paper's superview exists so that "a user can pose a single query
against the integrated schema" while the data stays in the component
databases.  This package is that runtime: a global
:class:`~repro.query.ast.Request` is planned onto the components
(:mod:`~repro.federation.planner`), executed concurrently with retries,
timeouts and circuit breakers (:mod:`~repro.federation.executor`)
against pluggable component backends — in-memory, sqlite via the
relational translation, or fault-injected
(:mod:`~repro.federation.backends`) — and the answers are merged under
the strategy the assertion network justifies
(:mod:`~repro.federation.plan`, :mod:`~repro.federation.merge`).

The sequential reference semantics live in
:func:`repro.data.federated_answer`; on a healthy run the engine's rows
equal the oracle's exactly.  Start with
:class:`~repro.federation.engine.FederationEngine`; see
``docs/FEDERATION.md`` for the full tour.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "ComponentBackend",
    "ComponentStatus",
    "ExecutionPolicy",
    "ExecutionResult",
    "FederatedPlan",
    "FederationEngine",
    "FederationExecutor",
    "FederationHealth",
    "FederationResult",
    "FlakyBackend",
    "InstanceBackend",
    "MergeConflict",
    "MergeOutcome",
    "MergeStrategy",
    "PairAssertion",
    "QueryPlanner",
    "SqliteBackend",
    "merge_legs",
    "render_sql_ddl",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ComponentBackend": "repro.federation.backends",
        "FlakyBackend": "repro.federation.backends",
        "InstanceBackend": "repro.federation.backends",
        "SqliteBackend": "repro.federation.backends",
        "render_sql_ddl": "repro.federation.backends",
        "FederationEngine": "repro.federation.engine",
        "FederationResult": "repro.federation.engine",
        "ExecutionPolicy": "repro.federation.executor",
        "ExecutionResult": "repro.federation.executor",
        "FederationExecutor": "repro.federation.executor",
        "BreakerState": "repro.federation.health",
        "CircuitBreaker": "repro.federation.health",
        "ComponentStatus": "repro.federation.health",
        "FederationHealth": "repro.federation.health",
        "MergeConflict": "repro.federation.merge",
        "MergeOutcome": "repro.federation.merge",
        "merge_legs": "repro.federation.merge",
        "FederatedPlan": "repro.federation.plan",
        "MergeStrategy": "repro.federation.plan",
        "PairAssertion": "repro.federation.plan",
        "QueryPlanner": "repro.federation.planner",
    },
)
