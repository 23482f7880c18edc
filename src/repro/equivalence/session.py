"""The :class:`AnalysisSession` facade — the recommended Phase 2/3 entry point.

One ``AnalysisSession`` owns everything the paper's interactive loop
(Screens 7–9) mutates: the attribute-equivalence registry, the memoized
ACS/OCS views and ranked candidate lists, and the two assertion networks
(object classes and relationship sets).  All components share one
:class:`~repro.obs.metrics.AnalysisCounters`, so a benchmark can reset
the counters, replay a DDA script and read exactly how much incremental
work each action cost — and one :class:`~repro.kernel.kernel.Kernel`,
whose event bus every mutation is committed to: the audit log journals
its commits, the cached views subscribe to it, and :meth:`Kernel.undo` /
:meth:`Kernel.redo` / :meth:`Kernel.checkout` time-travel over it.

Compared to wiring :class:`EquivalenceRegistry`, :class:`OcsMatrix` and
:class:`AssertionNetwork` together by hand, the facade

* keeps the cached matrices subscribed to the registry's change events, so
  an equivalence declared on Screen 7 invalidates exactly the object pairs
  it touched;
* routes assertions to the right network (``relationships=True`` selects
  the relationship-set subphase);
* accepts dotted-string references everywhere an ``ObjectRef`` or
  ``AttributeRef`` is expected; and
* exposes :meth:`integrate` for Phase 4 without constructing an
  :class:`~repro.integration.integrator.Integrator` manually.

Example::

    from repro import AnalysisSession, AssertionKind

    session = AnalysisSession([sc1, sc2])
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    for pair in session.candidate_pairs("sc1", "sc2"):
        print(pair)
    session.specify("sc1.Student", "sc2.Grad_student", AssertionKind.CONTAINS)
    result = session.integrate("sc1", "sc2")
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING, Iterable

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import AssertionKind, Relation, Source
from repro.assertions.network import AssertionNetwork
from repro.ecr.attributes import AttributeRef
from repro.ecr.objects import ObjectKind
from repro.ecr.schema import ObjectRef, Schema
from repro.equivalence.ordering import CandidatePair, ordered_object_pairs
from repro.equivalence.registry import EquivalenceIssue, EquivalenceRegistry
from repro.errors import EquivalenceError
from repro.kernel.bus import EventEmitter
from repro.kernel.events import NO_CHANGE
from repro.kernel.kernel import Kernel
from repro.obs.metrics import AnalysisCounters

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.equivalence.acs import AcsMatrix
    from repro.equivalence.ocs import OcsMatrix
    from repro.evolution.edits import SchemaEdit
    from repro.evolution.repair import EditOutcome, RepairScope
    from repro.integration.options import IntegrationOptions
    from repro.integration.result import IntegrationResult
    from repro.kernel.events import Event
    from repro.obs.audit import AuditLog

log = logging.getLogger("repro.evolution")


class AnalysisSession:
    """Registry + cached matrices + assertion networks behind one handle."""

    def __init__(
        self,
        schemas: Iterable[Schema] = (),
        *,
        registry: EquivalenceRegistry | None = None,
        object_network: AssertionNetwork | None = None,
        relationship_network: AssertionNetwork | None = None,
        counters: AnalysisCounters | None = None,
        kernel: Kernel | None = None,
    ) -> None:
        schemas = list(schemas)
        if registry is not None and schemas:
            raise EquivalenceError(
                "pass either schemas or a pre-built registry, not both"
            )
        self.counters = counters if counters is not None else AnalysisCounters()
        prebuilt = kernel is None and registry is not None
        if kernel is None:
            # a pre-built registry brings its own bus (and its event
            # pre-history); otherwise the kernel creates a fresh one
            kernel = Kernel(bus=registry.bus) if registry is not None else Kernel()
        #: the event kernel every mutation is committed through
        self.kernel = kernel
        kernel.bind(self)
        if registry is None:
            registry = EquivalenceRegistry(
                counters=self.counters, bus=kernel.bus
            )
        else:
            registry.counters = self.counters
            registry.bus = kernel.bus
        self.registry = registry
        if object_network is None:
            object_network = AssertionNetwork(counters=self.counters)
        else:
            object_network.counters = self.counters
        if relationship_network is None:
            relationship_network = AssertionNetwork(counters=self.counters)
        else:
            relationship_network.counters = self.counters
        self.object_network = object_network
        self.relationship_network = relationship_network
        self._bind_emitters()
        for schema in schemas:
            self.add_schema(schema)
        if prebuilt:
            # no replay from an empty session reaches the state the
            # pre-built components hold: time travel starts from it
            kernel.set_baseline()

    def _bind_emitters(self) -> None:
        """Give both networks their scoped handles on the kernel bus."""
        self.object_network.events = EventEmitter(
            self.kernel.bus, "object_network"
        )
        self.relationship_network.events = EventEmitter(
            self.kernel.bus, "relationship_network"
        )

    # -- schema management ----------------------------------------------------

    def add_schema(self, schema: Schema) -> None:
        """Register a schema everywhere: registry, networks, implicit edges."""
        with self.kernel.group():
            self.registry.register_schema(schema)
            self.object_network.seed_schema(schema)
            self.relationship_network.add_objects(
                ObjectRef(schema.name, relationship.name)
                for relationship in schema.relationship_sets()
            )

    def refresh_schema(
        self, schema_name: str, replacement: Schema | None = None
    ) -> None:
        """Re-sync the registry and reseed the networks after schema edits.

        ``replacement`` swaps in a new :class:`Schema` object under the
        same name first (audit replay uses this to reproduce in-place
        edits it cannot observe).
        """
        with self.kernel.group():
            self.registry.refresh_schema(schema_name, replacement=replacement)
            self.reseed_networks()

    def apply_edit(self, schema_name: str, edit: "SchemaEdit") -> "EditOutcome":
        """Apply one typed schema edit with localized downstream repair.

        The edit is validated and applied to the schema first: a refused
        edit raises before anything mutates and never enters the kernel.
        The repair then runs as a single :class:`Kernel` transaction,
        committed as one ``evolution.apply_edit`` event (any failure in
        it rolls the session back by *baseline + replay*); every
        downstream layer repairs only what the edit touched:

        * the registry applies the precise attribute deltas
          (:meth:`EquivalenceRegistry.evolve_schema`) — renames keep their
          equivalence class, so the cached OCS/ACS views invalidate only
          the touched owners' cells;
        * dropped structures leave the assertion networks through
          :meth:`AssertionNetwork.remove_object` (retract + support-index
          repair of just the dependent closure); added categories seed
          their implicit containment edges exactly as ``add_schema`` would;
        * when the latest ``session.integrate`` event at the head covers
          the edited schema, the pair is re-integrated with that event's
          pair, name and options once the edit is committed, and the
          result is recorded against the edit's event (see
          :meth:`_reintegrate`).  Replay runs this same method, so live,
          replayed and restored sessions agree on the integrated schema.

        Dropping a class or relationship that still carries specified DDA
        assertions is refused with a
        :class:`~repro.errors.ConsistencyFailure` listing them (pass
        ``cascade=True`` on the drop to retract them as part of the
        repair).  Destructive edits — retracted assertions, equivalence
        memberships lost with a dropped attribute — record no event
        inverse, so undo falls back to a checkout; everything
        else undoes by applying the inverse edit.

        Returns an :class:`~repro.evolution.repair.EditOutcome` carrying
        the inverse edit, the :class:`~repro.evolution.repair.RepairScope`
        and the re-integrated result, if any.
        """
        from repro.errors import ConsistencyFailure
        from repro.evolution.repair import EditOutcome, RepairScope
        from repro.kernel.apply import schema_fingerprint
        from repro.obs.trace import span

        schema = self.registry.schema(schema_name)
        scope = RepairScope(schema=schema_name, edit_kind=edit.kind)
        with span(
            "evolution.apply",
            counters=self.counters,
            schema=schema_name,
            kind=edit.kind,
        ):
            conflict = self._edit_conflict(schema_name, edit)
            if conflict:
                self.counters.evolution_edits_rejected += 1
                with self.kernel.group():
                    self.kernel.bus.publish(
                        "evolution",
                        "edit_rejected",
                        {"schema": schema_name, "edit": edit.to_payload()},
                        inverse=NO_CHANGE,
                    )
                raise ConsistencyFailure(conflict, subject=conflict[0].pair)
            delta = edit.apply(schema)
            with self.kernel.transaction():
                added = [
                    AttributeRef(schema_name, obj, attr)
                    for obj, attr in delta.added_refs
                ]
                dropped = [
                    AttributeRef(schema_name, obj, attr)
                    for obj, attr in delta.dropped_refs
                ]
                renamed = [
                    (
                        AttributeRef(schema_name, obj, old),
                        AttributeRef(schema_name, obj, new),
                    )
                    for obj, old, new in delta.renamed_refs
                ]
                # memberships that cannot be restored by the inverse edit
                lost_memberships = any(
                    len(self.registry.class_members(ref)) > 1
                    for ref in dropped
                )
                retracted: list[Assertion] = []
                pairs_before = self.counters.closure_pairs_recomputed
                with self.kernel.bus.replaying():
                    for name in delta.dropped_objects:
                        retracted.extend(
                            self.object_network.remove_object(
                                ObjectRef(schema_name, name)
                            )
                        )
                    for name in delta.dropped_relationships:
                        retracted.extend(
                            self.relationship_network.remove_object(
                                ObjectRef(schema_name, name)
                            )
                        )
                    for name in delta.added_objects:
                        self.object_network.add_object(
                            ObjectRef(schema_name, name)
                        )
                        structure = schema.get(name)
                        if (
                            structure.is_category
                            and len(structure.parents) == 1
                        ):
                            self.object_network.specify(
                                ObjectRef(schema_name, name),
                                ObjectRef(schema_name, structure.parents[0]),
                                AssertionKind.CONTAINED_IN,
                                source=Source.IMPLICIT,
                                note="category structure",
                            )
                    for name in delta.added_relationships:
                        self.relationship_network.add_object(
                            ObjectRef(schema_name, name)
                        )
                    for name in delta.reseeded_objects:
                        # category structure changed: the implicit
                        # containment assertions follow the schema, so
                        # re-derive them (DDA assertions are left alone)
                        ref = ObjectRef(schema_name, name)
                        for stale in [
                            assertion
                            for assertion in (
                                self.object_network.specified_assertions()
                            )
                            if assertion.source is Source.IMPLICIT
                            and assertion.first == ref
                        ]:
                            self.object_network.retract(
                                stale.first, stale.second
                            )
                        structure = schema.get(name)
                        if (
                            structure.is_category
                            and len(structure.parents) == 1
                        ):
                            parent = ObjectRef(
                                schema_name, structure.parents[0]
                            )
                            specified = any(
                                {assertion.first, assertion.second}
                                == {ref, parent}
                                for assertion in (
                                    self.object_network.specified_assertions()
                                )
                            )
                            if not specified:
                                self.object_network.specify(
                                    ref,
                                    parent,
                                    AssertionKind.CONTAINED_IN,
                                    source=Source.IMPLICIT,
                                    note="category structure",
                                )
                    self.registry.evolve_schema(
                        schema_name,
                        added=added,
                        dropped=dropped,
                        renamed=renamed,
                        touched=[
                            (schema_name, name)
                            for name in delta.all_touched()
                        ],
                        structural=delta.structural,
                    )
                scope.pairs_repropagated = (
                    self.counters.closure_pairs_recomputed - pairs_before
                )
                destructive = bool(retracted) or lost_memberships
                scope.assertions_retracted = len(retracted)
                scope.registry_classes_touched = (
                    len(added) + len(dropped) + len(renamed)
                )
                scope.ocs_cells_total = self.registry.view_cell_capacity()
                self.counters.evolution_edits_applied += 1
                self.counters.evolution_assertions_retracted += len(retracted)
                self.counters.evolution_pairs_repropagated += (
                    scope.pairs_repropagated
                )
                event_inverse = None
                if not destructive:
                    event_inverse = (
                        "evolution",
                        "apply_edit",
                        {
                            "schema": schema_name,
                            "edit": delta.inverse.to_payload(),
                        },
                    )
                event = self.kernel.bus.publish(
                    "evolution",
                    "apply_edit",
                    {
                        "schema": schema_name,
                        "edit": edit.to_payload(),
                        "inverse": delta.inverse.to_payload(),
                        "fingerprint": schema_fingerprint(schema),
                    },
                    schemas=frozenset({schema_name}),
                    inverse=event_inverse,
                )
            result = self._reintegrate(schema_name, event, scope)
        return EditOutcome(
            edit=edit,
            inverse=delta.inverse,
            scope=scope,
            retracted=tuple(retracted),
            destructive=destructive,
            result=result,
        )

    def _reintegrate(
        self, schema_name: str, event: "Event", scope: "RepairScope"
    ) -> "IntegrationResult | None":
        """Re-run the latest integration if the committed edit touched it.

        ``event`` is the edit's ``evolution.apply_edit`` event (offset 0
        under replay, where the head sits just before it).  Either way the
        head lookups see the state before the edit: the latest
        ``session.integrate`` event and the result the edit supersedes.
        Nothing runs when the kernel already holds the result
        (:meth:`Kernel.wants_result <repro.kernel.kernel.Kernel.wants_result>`),
        or when a schema of the recorded pair is no longer registered.
        The integration re-runs with the event's recorded pair, result
        name and options (not whatever options the caller holds now), and
        a live result is recorded against the edit's offset; replay
        records it through ``results``.  Any failure leaves the edit
        applied and yields ``None`` — on the live path and under replay
        alike, so a logged edit always replays — and is logged with its
        traceback.  The scope counts the clusters whose membership the
        previous result did not have.
        """
        from repro.integration.integrator import Integrator
        from repro.integration.options import IntegrationOptions
        from repro.obs.trace import span

        if not self.kernel.wants_result(event):
            return None
        integrated = self.kernel.integration_at_head()
        if integrated is None:
            return None
        payload = integrated.payload
        first, second = payload["first"], payload["second"]
        if schema_name not in (first, second):
            return None
        registered = {schema.name for schema in self.registry.schemas()}
        if not {first, second} <= registered:
            return None  # Delete Schema took one side of the pair away
        previous = self.kernel.result_at_head()
        integrator = Integrator(
            self.registry,
            self.object_network,
            self.relationship_network,
            IntegrationOptions(**payload.get("options", {})),
        )
        try:
            with span(
                "evolution.repair.integration",
                counters=self.counters,
                first=first,
                second=second,
            ):
                result = integrator.integrate(
                    first, second, payload.get("result_name", "integrated")
                )
        except Exception:  # any failure: the edit must stay replayable
            log.exception(
                "re-integrating %s/%s after an edit to %s failed",
                first, second, schema_name,
            )
            return None
        if event.offset:
            self.kernel.record_result(event.offset, result)
        before = set(previous.clusters) if previous is not None else set()
        scope.integrated_patched = True
        scope.clusters_total = len(result.clusters)
        scope.clusters_changed = sum(
            1 for cluster in result.clusters if cluster not in before
        )
        self.counters.evolution_clusters_rebuilt += scope.clusters_changed
        return result

    def _edit_conflict(
        self, schema_name: str, edit: "SchemaEdit"
    ) -> tuple[Assertion, ...]:
        """Specified DDA assertions a non-cascade drop would orphan."""
        from repro.evolution.edits import DropClass, DropRelationship

        if isinstance(edit, DropClass) and not edit.cascade:
            network = self.object_network
            ref = ObjectRef(schema_name, edit.object_name)
        elif isinstance(edit, DropRelationship) and not edit.cascade:
            network = self.relationship_network
            ref = ObjectRef(schema_name, edit.relationship)
        else:
            return ()
        return tuple(
            assertion
            for assertion in network.specified_assertions()
            if ref in assertion.pair and assertion.source is not Source.IMPLICIT
        )

    def reseed_networks(self) -> None:
        """Rebuild both assertion networks from the registered schemas.

        Assertions are the DDA's statements about the *current* shape of
        the schemas; after a structural edit they are re-collected, exactly
        as the tool's screens do.
        """
        self.object_network = AssertionNetwork(counters=self.counters)
        self.relationship_network = AssertionNetwork(counters=self.counters)
        self._bind_emitters()
        for schema in self.registry.schemas():
            self.object_network.seed_schema(schema)
            for relationship in schema.relationship_sets():
                self.relationship_network.add_object(
                    ObjectRef(schema.name, relationship.name)
                )

    def reset_to(self, schemas: Iterable[Schema]) -> None:
        """Rebuild this session in place over a new schema list.

        The old registry's cached views are disposed (their bus
        subscriptions cancelled), fresh components are created on the
        *same* kernel bus, and the schemas are re-added.  The kernel's
        checkout/rollback paths and the tool's Delete Schema both run
        through here.
        """
        self.registry.dispose_views()
        self.registry = EquivalenceRegistry(
            counters=self.counters, bus=self.kernel.bus
        )
        self.object_network = AssertionNetwork(counters=self.counters)
        self.relationship_network = AssertionNetwork(counters=self.counters)
        self._bind_emitters()
        for schema in schemas:
            self.add_schema(schema)

    def delete_schema(self, name: str) -> None:
        """Screen 2 Delete: drop one schema and rebuild from the survivors.

        One ``session.delete_schema`` event goes in the log; the rebuild
        runs in replay mode, so equivalences and assertions start clean.
        """
        self.registry.schema(name)  # validates
        remaining = [other for other in self.schemas() if other.name != name]
        with self.kernel.group():
            self.kernel.bus.publish("session", "delete_schema", {"name": name})
            with self.kernel.bus.replaying():
                self.reset_to(remaining)

    def record_query(self, payload: dict) -> None:
        """Log a federated query: it reads the state, so undo skips it."""
        with self.kernel.group():
            self.kernel.bus.publish(
                "federation", "query", payload, inverse=NO_CHANGE
            )

    # -- audit recording --------------------------------------------------------

    @property
    def audit_log(self) -> "AuditLog | None":
        """The attached audit log, if any (see :meth:`attach_audit`)."""
        return self.kernel.audit

    def attach_audit(self, log: "AuditLog | None" = None) -> "AuditLog":
        """Start recording every mutation into an audit log.

        The kernel feeds the log from the same place as the WAL: every
        group committed from now on, whatever surface drove it, and every
        undo, redo and checkout (see :mod:`repro.obs.audit`).  If the
        session already has state, a ``session.snapshot`` capturing it is
        recorded first.  Returns the log (a fresh one when omitted).
        """
        from repro.obs.audit import AuditLog

        log = AuditLog() if log is None else log
        self.kernel.attach_audit(log)
        return log

    def detach_audit(self) -> "AuditLog | None":
        """Stop recording; returns the previously attached log, if any."""
        log, self.kernel.audit = self.kernel.audit, None
        return log

    def _audit_snapshot(self) -> dict:
        """What a ``session.snapshot`` audit event records.

        The :meth:`state_payload`, plus under ``integration`` the latest
        ``session.integrate`` event at the kernel head, if any: its pair,
        result name and options, with the fingerprint of the result at the
        head (a later edit may have re-integrated it) and, when that result
        predates the head, under ``state`` the state it was computed from
        (rebuilt on a scratch kernel).  Replay re-runs the integration
        there, so an edit that follows re-integrates as it did live.
        """
        from repro.kernel.apply import schema_fingerprint

        payload = self.state_payload()
        kernel = self.kernel
        integrated = kernel.integration_at_head()
        if integrated is not None:
            recorded = dict(integrated.payload)
            result = kernel.result_at_head()
            if result is None:
                recorded.pop("fingerprint", None)
            else:
                recorded["fingerprint"] = schema_fingerprint(result.schema)
            computed_at = kernel.result_offset_at_head()
            if computed_at != kernel.head:
                scratch = AnalysisSession(
                    kernel=Kernel.restore(kernel.export_state())
                )
                scratch.kernel.checkout(computed_at)
                recorded["state"] = scratch.state_payload()
            payload["integration"] = recorded
        return payload

    def state_payload(self) -> dict:
        """The session's current state, in canonical replayable form.

        Class member order and assertion order are sorted: they are
        history-dependent in the live registry (merge order, retract +
        respecify), but two sessions holding the same partition and the
        same assertions must fingerprint identically.
        """
        from repro.ecr.json_io import schema_to_dict

        assertions = []
        for relationships, network in (
            (False, self.object_network),
            (True, self.relationship_network),
        ):
            for assertion in network.specified_assertions():
                if assertion.source is Source.IMPLICIT:
                    continue  # re-seeded by add_schema on replay
                assertions.append(
                    {
                        "first": str(assertion.first),
                        "second": str(assertion.second),
                        "kind": assertion.kind.code,
                        "source": assertion.source.name,
                        "note": assertion.note,
                        "relationships": relationships,
                    }
                )
        return {
            "schemas": [
                schema_to_dict(schema) for schema in self.registry.schemas()
            ],
            "equivalences": sorted(
                sorted(str(ref) for ref in members)
                for members in self.registry.nontrivial_classes()
            ),
            "assertions": sorted(
                assertions,
                key=lambda entry: (
                    entry["relationships"],
                    entry["first"],
                    entry["second"],
                ),
            ),
        }

    def schema(self, name: str) -> Schema:
        """One registered schema by name."""
        return self.registry.schema(name)

    def schemas(self) -> list[Schema]:
        """All registered schemas, in registration order."""
        return self.registry.schemas()

    # -- Phase 2: equivalences and similarity views ----------------------------

    def declare_equivalent(
        self, first: AttributeRef | str, second: AttributeRef | str
    ) -> list[EquivalenceIssue]:
        """Screen 7 Add: merge two attributes' equivalence classes."""
        with self.kernel.group():
            return self.registry.declare_equivalent(first, second)

    def remove_from_class(self, ref: AttributeRef | str) -> None:
        """Screen 7 Delete: move an attribute back to a singleton class."""
        with self.kernel.group():
            self.registry.remove_from_class(ref)

    def ocs(
        self,
        first_schema: str,
        second_schema: str,
        kind_filter: ObjectKind | None = None,
    ) -> "OcsMatrix":
        """The memoized OCS matrix for a schema pair."""
        return self.registry.ocs(first_schema, second_schema, kind_filter)

    def acs(self, first_schema: str, second_schema: str) -> "AcsMatrix":
        """The memoized ACS matrix for a schema pair."""
        return self.registry.acs(first_schema, second_schema)

    def candidate_pairs(
        self,
        first_schema: str,
        second_schema: str,
        *,
        relationships: bool = False,
        include_zero: bool = False,
    ) -> list[CandidatePair]:
        """The ranked Screen 8 list (memoized; incrementally invalidated)."""
        kind = ObjectKind.RELATIONSHIP if relationships else None
        return ordered_object_pairs(
            self.registry,
            first_schema,
            second_schema,
            kind_filter=kind,
            include_zero=include_zero,
        )

    # -- Phase 3: assertions ----------------------------------------------------

    def network_for(self, relationships: bool = False) -> AssertionNetwork:
        """The object-class or relationship-set assertion network."""
        return self.relationship_network if relationships else self.object_network

    def specify(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        kind: AssertionKind | int,
        *,
        relationships: bool = False,
        source: Source = Source.DDA,
        note: str = "",
    ) -> Assertion:
        """Record a Screen 8 assertion (deriving and conflict-checking)."""
        with self.kernel.group():
            return self.network_for(relationships).specify(
                first, second, kind, source, note
            )

    def respecify(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        kind: AssertionKind | int,
        *,
        relationships: bool = False,
        source: Source = Source.DDA,
        note: str = "",
    ) -> Assertion:
        """Screen 9 review-and-modify: replace the assertion on a pair.

        The retract + specify pair commits as **one** kernel group, so a
        single undo reverts the whole review-and-modify action.
        """
        with self.kernel.group():
            return self.network_for(relationships).respecify(
                first, second, kind, source, note
            )

    def retract(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        *,
        relationships: bool = False,
    ) -> None:
        """Withdraw an assertion; the network repairs incrementally."""
        with self.kernel.group():
            self.network_for(relationships).retract(first, second)

    def feasible(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        *,
        relationships: bool = False,
    ) -> frozenset[Relation]:
        """Feasible relations between two objects, oriented first→second."""
        return self.network_for(relationships).feasible(first, second)

    def assertion_for(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        *,
        relationships: bool = False,
    ) -> Assertion | None:
        """The specified or derived assertion on a pair, if any."""
        return self.network_for(relationships).assertion_for(first, second)

    def explain(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        *,
        relationships: bool = False,
    ) -> list[Assertion]:
        """The Screen 9 support chain behind a pair's current state."""
        return self.network_for(relationships).explain(first, second)

    # -- Phase 3½: solver-backed suggestions and what-if explanations -----------

    def suggest_assertions(
        self,
        first_schema: str,
        second_schema: str,
        *,
        relationships: bool = False,
        limit: int = 10,
    ):
        """Ranked, trial-propagated EQUALS candidates (the Screen 10 list).

        Each suggestion is labelled ``safe`` or ``conflicting`` by a
        rolled-back trial on the object or relationship network; see
        :func:`repro.solver.suggest_equivalence_assertions`.
        """
        from repro.solver.suggest import suggest_equivalence_assertions

        return suggest_equivalence_assertions(
            self.registry,
            self.network_for(relationships),
            first_schema,
            second_schema,
            relationships=relationships,
            limit=limit,
            counters=self.counters,
        )

    def explain_assertion(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        kind: AssertionKind | int,
        *,
        relationships: bool = False,
    ):
        """What specifying ``kind`` on a pair would do, without doing it.

        Returns an :class:`repro.solver.AssertionExplanation`: consistent
        or not, the minimal conflict set when not, the newly derived
        consequences when it is.  The network is never mutated.
        """
        from repro.solver.engine import explain_assertion

        return explain_assertion(
            self.network_for(relationships), first, second, kind
        )

    # -- Phase 4: integration ----------------------------------------------------

    def integrate(
        self,
        first_schema: str,
        second_schema: str,
        *,
        result_name: str = "integrated",
        options: "IntegrationOptions | None" = None,
    ) -> "IntegrationResult":
        """Integrate two registered schemas using the session's state.

        Commits a ``session.integrate`` event carrying the pair, result
        name, options and the result schema's SHA-256 fingerprint — the
        audit log records it, replay verifies bitwise-identical
        reproduction against it, redo re-runs the integration from it,
        and a later :meth:`apply_edit` to either schema re-integrates
        with what it records.
        """
        from dataclasses import asdict

        from repro.integration.integrator import Integrator
        from repro.integration.options import IntegrationOptions
        from repro.kernel.apply import schema_fingerprint

        resolved = options if options is not None else IntegrationOptions()
        integrator = Integrator(
            self.registry,
            self.object_network,
            self.relationship_network,
            resolved,
        )
        with self.kernel.group():
            result = integrator.integrate(
                first_schema, second_schema, result_name
            )
            event = self.kernel.bus.publish(
                "session",
                "integrate",
                {
                    "first": first_schema,
                    "second": second_schema,
                    "result_name": result_name,
                    "options": asdict(resolved),
                    "fingerprint": schema_fingerprint(result.schema),
                },
            )
            if event.offset:
                self.kernel.record_result(event.offset, result)
        return result

    # -- instrumentation ----------------------------------------------------------

    def counters_snapshot(self) -> dict[str, int]:
        """The shared work counters as a plain dict."""
        return self.counters.snapshot()

    def reset_counters(self) -> None:
        """Zero the shared work counters (benchmarks call this between phases)."""
        self.counters.reset()
