"""The cached federated query planner.

A :class:`QueryPlanner` turns a global :class:`~repro.query.ast.Request`
into a :class:`~repro.federation.plan.FederatedPlan`:

1. the request is routed onto every contributing component schema via
   :func:`~repro.query.rewrite.rewrite_to_components` (IS-A routing
   included when the integrated schema is known);
2. the merge strategy is derived from the object-class assertion network
   — the same assertions that drove integration justify how the
   components' answers recombine (see :mod:`repro.federation.plan`); and
3. the key positions of the projection are read off the integrated
   schema, so the merger can reconcile entities and surface conflicts.

Plans are **cached** per request text and keyed on a version token — a
planner-local counter.  The planner never polls the registry: when one
is supplied it subscribes to its
:class:`~repro.equivalence.registry.RegistryChange` events (delivered off
the kernel event bus) and each mutation advances the token and drops
every cached plan — a schema or equivalence edit changes the mappings,
so no stale plan can survive it.  :meth:`QueryPlanner.invalidate` does
the same by hand for registry-less planners, and
:meth:`QueryPlanner.close` cancels the subscription when the planner is
dropped or replaced.  Hit/miss counts feed the ``federation.plan.*``
metrics (the plan-cache hit ratio the benchmark records).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.ecr.schema import ObjectRef, Schema
from repro.ecr.walk import inherited_attributes
from repro.federation.plan import FederatedPlan, MergeStrategy, PairAssertion
from repro.integration.mappings import SchemaMapping
from repro.kernel.bus import weak_callback
from repro.obs.trace import span
from repro.query.ast import Request
from repro.query.rewrite import ComponentRequest, rewrite_to_components

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.assertions.network import AssertionNetwork
    from repro.equivalence.registry import EquivalenceRegistry, RegistryChange
    from repro.obs.metrics import MetricsRegistry


class QueryPlanner:
    """Plans global requests against the component mappings, with caching."""

    def __init__(
        self,
        mappings: dict[str, SchemaMapping],
        integrated_schema: Schema | None = None,
        *,
        object_network: "AssertionNetwork | None" = None,
        registry: "EquivalenceRegistry | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.mappings = mappings
        self.integrated_schema = integrated_schema
        self.object_network = object_network
        self.registry = registry
        self.metrics = metrics
        self._cache: dict[str, FederatedPlan] = {}
        self._local_version = 0
        #: plans the most recent localized ``evolve`` change dropped
        self.last_evolve_invalidated = 0
        #: the registry subscription (:meth:`close` cancels it); the bus
        #: holds this planner weakly, so a dropped planner is freed
        self._subscription = (
            registry.subscribe(
                weak_callback(self, QueryPlanner._on_registry_change)
            )
            if registry is not None
            else None
        )

    def close(self) -> None:
        """Stop tracking registry changes (idempotent).

        Call when the planner is dropped or replaced; cached plans stay
        but nothing invalidates them any more.
        """
        if self._subscription is not None:
            self._subscription.cancel()
            self._subscription = None

    # -- cache control ----------------------------------------------------------

    def _on_registry_change(self, change: "RegistryChange") -> None:
        """Invalidate cached plans a registry mutation may have stalled.

        Most mutations still drop everything — equivalence edits move
        mappings in ways a plan key cannot see.  Localized ``evolve``
        changes (schema edits) are the exception: only plans with a leg on
        an edited object (or, for structural edits, on the edited schema)
        are dropped, and the version token stays put so the survivors keep
        validating.  The drop count feeds the repair-scope report.
        """
        if change.kind != "evolve":
            self._local_version += 1
            self._cache.clear()
            return
        edited = set(change.objects)  # (schema, object) owner pairs
        stale = [
            key
            for key, plan in self._cache.items()
            if any(
                leg.schema in change.schemas
                or (leg.schema, leg.request.object_name) in edited
                for leg in plan.legs
            )
        ]
        for key in stale:
            del self._cache[key]
        self.last_evolve_invalidated = len(stale)

    def invalidate(self) -> None:
        """Drop all cached plans and advance the local version token.

        Call after replacing :attr:`mappings` (a new integration run) when
        no live registry is wired in to do it automatically.
        """
        self._local_version += 1
        self._cache.clear()

    def version_token(self) -> int:
        """The planner-local token cached plans are validated against."""
        return self._local_version

    def cache_size(self) -> int:
        return len(self._cache)

    # -- planning ---------------------------------------------------------------

    def plan(self, request: Request) -> FederatedPlan:
        """The (possibly cached) federated plan for a global request."""
        token = self.version_token()
        key = str(request)
        cached = self._cache.get(key)
        if cached is not None and cached.version_token == token:
            self._count("federation.plan.hit")
            return cached
        self._count("federation.plan.miss")
        with span("federation.plan", request=key):
            legs = tuple(
                rewrite_to_components(
                    request, self.mappings, self.integrated_schema
                )
            )
            strategy, pairs = self._derive_strategy(legs)
            built = FederatedPlan(
                request=request,
                legs=legs,
                strategy=strategy,
                pair_assertions=pairs,
                key_positions=self._key_positions(request),
                version_token=token,
            )
        self._cache[key] = built
        return built

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def _key_positions(self, request: Request) -> tuple[int, ...]:
        """Projection positions holding key attributes of the global class."""
        if self.integrated_schema is None:
            return ()
        keys = {
            attribute.name
            for attribute in inherited_attributes(
                self.integrated_schema, request.object_name
            )
            if attribute.is_key
        }
        return tuple(
            index
            for index, name in enumerate(request.attributes)
            if name in keys
        )

    def _derive_strategy(
        self, legs: tuple[ComponentRequest, ...]
    ) -> tuple[MergeStrategy, tuple[PairAssertion, ...]]:
        """The merge strategy the assertion network justifies for these legs.

        Every cross-schema pair of contributing component objects is looked
        up in the network; the *weakest* relationship seen decides:
        equals-only pairs key-merge, containment admits a subset-aware
        union, and anything overlapping, disjoint or unasserted falls back
        to the outer union.  Without a network the outer union is the only
        sound choice.
        """
        from repro.assertions.kinds import AssertionKind

        pairs: list[PairAssertion] = []
        if self.object_network is None:
            return MergeStrategy.OUTER_UNION, ()
        for first, second in itertools.combinations(legs, 2):
            if first.schema == second.schema:
                continue  # same store: one executor visit, no cross-merge
            first_ref = ObjectRef(first.schema, first.request.object_name)
            second_ref = ObjectRef(second.schema, second.request.object_name)
            try:
                assertion = self.object_network.assertion_for(
                    first_ref, second_ref
                )
            except Exception:
                assertion = None  # objects unknown to this network
            pairs.append(
                PairAssertion(
                    str(first_ref),
                    str(second_ref),
                    assertion.kind.code if assertion is not None else None,
                )
            )
        kinds = set()
        for pair in pairs:
            if pair.code is None:
                return MergeStrategy.OUTER_UNION, tuple(pairs)
            kinds.add(AssertionKind.from_code(pair.code))
        containment = {AssertionKind.CONTAINED_IN, AssertionKind.CONTAINS}
        if kinds and kinds <= {AssertionKind.EQUALS}:
            return MergeStrategy.KEY_MERGE, tuple(pairs)
        if kinds and kinds <= containment | {AssertionKind.EQUALS}:
            return MergeStrategy.SUBSET_UNION, tuple(pairs)
        return MergeStrategy.OUTER_UNION, tuple(pairs)
