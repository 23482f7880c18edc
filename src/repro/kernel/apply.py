"""Applying events to a session: the one re-drive engine.

:func:`apply_event` takes a committed event — a kernel
:class:`~repro.kernel.events.Event` or a recorded
:class:`~repro.obs.audit.AuditEvent`, duck-typed on
``scope``/``action``/``payload`` — and re-runs the mutation it records
against an :class:`~repro.equivalence.session.AnalysisSession`.  Audit
replay (:func:`repro.obs.replay.replay`), kernel ``checkout``, redo and
inverse application during undo/rollback are all loops over this one
function, so "replay" means the same thing everywhere.

The schema-fingerprint utilities live here too (they were born in
``repro.obs.replay``, which still re-exports them): integration events
carry a SHA-256 fingerprint of the produced schema, and replay verifies
bitwise-identical reproduction through them.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.assertions.kinds import Source
from repro.ecr.json_io import schema_from_dict, schema_to_dict
from repro.ecr.schema import Schema
from repro.errors import AssertionSpecError, ConflictError, ReplayError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.equivalence.session import AnalysisSession
    from repro.integration.result import IntegrationResult


def canonical_schema_json(schema: Schema) -> str:
    """The canonical (sorted-key, compact) JSON form of a schema."""
    return json.dumps(
        schema_to_dict(schema), sort_keys=True, separators=(",", ":")
    )


def schema_fingerprint(schema: Schema) -> str:
    """SHA-256 hex digest of :func:`canonical_schema_json`.

    Two schemas share a fingerprint iff their canonical JSON is bitwise
    identical — the equality the replay round-trip asserts.
    """
    return hashlib.sha256(
        canonical_schema_json(schema).encode("utf-8")
    ).hexdigest()


def event_label(event: Any) -> str:
    """A human-readable label for a kernel or audit event."""
    position = getattr(event, "seq", None)
    if position is None:
        position = getattr(event, "offset", "?")
    return f"event {position} ({event.scope}.{event.action})"


def apply_event(
    session: "AnalysisSession",
    event: Any,
    diverge: Callable[[Any, str], None],
    *,
    results: "list[IntegrationResult] | None" = None,
    fingerprints: list[tuple[str, str]] | None = None,
) -> None:
    """Re-run one recorded mutation against ``session``.

    ``diverge(event, message)`` is called whenever the session no longer
    behaves as the event records (strict callers raise
    :class:`~repro.errors.ReplayError` from it; lenient callers collect).
    ``results``/``fingerprints`` accumulate integration outcomes when the
    caller wants them (audit replay does; undo/redo passes ``results``).
    A schema edit that re-integrated its pair adds its result to
    ``results`` too; only integrate events add ``fingerprints``.
    """
    if event.scope == "registry":
        _apply_registry_event(session, event, diverge)
    elif event.scope in ("object_network", "relationship_network"):
        _apply_network_event(session, event, diverge)
    elif event.scope == "session":
        if event.action == "integrate":
            _apply_integrate_event(
                session, event, diverge, results=results,
                fingerprints=fingerprints,
            )
        elif event.action == "snapshot":
            _apply_snapshot_event(session, event, diverge)
        elif event.action == "delete_schema":
            _apply_delete_schema_event(session, event, diverge)
        else:
            diverge(event, f"unknown session action {event.action!r}")
    elif event.scope == "evolution":
        _apply_evolution_event(session, event, diverge, results=results)
    elif event.scope == "kernel":
        _apply_kernel_event(session, event, diverge)
    elif event.scope == "federation":
        # federated queries are informational: they read the analysis
        # state (mappings, assertions) but never mutate it, so replay
        # re-records the event and has nothing to verify
        session.record_query(event.payload)
    else:
        diverge(event, f"unknown scope {event.scope!r}")


# -- per-scope appliers ---------------------------------------------------------


def _apply_registry_event(session, event, diverge) -> None:
    payload = event.payload
    try:
        if event.action == "register_schema":
            session.add_schema(schema_from_dict(payload["schema"]))
        elif event.action == "declare_equivalent":
            session.registry.declare_equivalent(
                payload["first"], payload["second"]
            )
        elif event.action == "remove_from_class":
            session.registry.remove_from_class(payload["ref"])
        elif event.action == "refresh_schema":
            session.refresh_schema(
                payload["schema"]["name"],
                replacement=schema_from_dict(payload["schema"]),
            )
        elif event.action == "restore_classes":
            session.registry.restore_classes(payload["groups"])
        else:
            diverge(event, f"unknown registry action {event.action!r}")
    except ReplayError:
        raise
    except Exception as exc:  # pragma: no cover - divergence reporting
        diverge(event, f"replay raised {type(exc).__name__}: {exc}")


def _apply_network_event(session, event, diverge) -> None:
    payload = event.payload
    relationships = event.scope == "relationship_network"
    if event.action == "retract":
        try:
            session.retract(
                payload["first"], payload["second"], relationships=relationships
            )
        except AssertionSpecError as exc:
            diverge(event, f"recorded retract now raises: {exc}")
        return
    if event.action not in ("specify", "conflict", "rejected"):
        diverge(event, f"unknown network action {event.action!r}")
        return
    if payload.get("source") == "IMPLICIT":
        held = session.network_for(relationships).assertion_for(
            payload["first"], payload["second"]
        )
        if held is not None and held.source is Source.IMPLICIT:
            return  # re-seeded by the schema event before it
    try:
        session.specify(
            payload["first"],
            payload["second"],
            int(payload["kind"]),
            relationships=relationships,
            source=Source[payload.get("source", "DDA")],
            note=payload.get("note", ""),
        )
        replayed = "specify"
    except ConflictError:
        replayed = "conflict"  # the network rolled back, as recorded
    except AssertionSpecError:
        replayed = "rejected"
    expected = {event.action}
    if event.action == "rejected":
        expected.add("conflict")  # a conflict is a kind of rejection
    if replayed not in expected:
        diverge(event, f"recorded {event.action} replayed as {replayed}")


def _apply_evolution_event(session, event, diverge, *, results) -> None:
    """Re-drive one schema edit (or reproduce its recorded rejection).

    ``apply_edit`` runs its repairs under the bus's replaying guard, so
    re-driving it here never double-appends; the recorded component-schema
    fingerprint (when present — inverse commands carry none) verifies the
    edit landed on the same schema bytes as the original run.  The
    edit's re-integration, when it ran one, lands on ``results``.
    """
    from repro.errors import ConsistencyFailure
    from repro.evolution.edits import edit_from_payload

    payload = event.payload
    rejected = event.action == "edit_rejected"
    if not rejected and event.action != "apply_edit":
        diverge(event, f"unknown evolution action {event.action!r}")
        return
    try:
        outcome = session.apply_edit(
            payload["schema"], edit_from_payload(payload["edit"])
        )
    except ReplayError:
        raise
    except Exception as exc:
        if not (rejected and isinstance(exc, ConsistencyFailure)):
            diverge(event, f"replay raised {type(exc).__name__}: {exc}")
        return  # a recorded rejection reproduced
    if rejected:
        diverge(event, "recorded edit_rejected no longer raises")
        return
    if results is not None and outcome.result is not None:
        results.append(outcome.result)
    recorded = payload.get("fingerprint")
    if recorded is not None:
        replayed = schema_fingerprint(
            session.registry.schema(payload["schema"])
        )
        if recorded != replayed:
            diverge(
                event,
                f"evolved schema diverged (recorded {recorded[:12]}…, "
                f"replayed {replayed[:12]}…)",
            )


def _apply_integrate_event(
    session, event, diverge, *, results, fingerprints
) -> None:
    result, recorded, replayed = _integrate_recorded(
        session, event, event.payload, diverge
    )
    if results is not None:
        results.append(result)
    if fingerprints is not None:
        fingerprints.append((recorded, replayed))


def _integrate_recorded(session, event, payload, diverge):
    """Run the integration ``payload`` records and check its fingerprint.

    Returns the result with the recorded and replayed fingerprints (the
    recorded one defaults to the replayed one when the payload has none).
    """
    from repro.integration.options import IntegrationOptions

    result = session.integrate(
        payload["first"],
        payload["second"],
        result_name=payload.get("result_name", "integrated"),
        options=IntegrationOptions(**payload.get("options", {})),
    )
    replayed = schema_fingerprint(result.schema)
    recorded = payload.get("fingerprint", replayed)
    if recorded != replayed:
        diverge(
            event,
            f"integrated schema diverged (recorded {recorded[:12]}…, "
            f"replayed {replayed[:12]}…)",
        )
    return result, recorded, replayed


def _apply_snapshot_event(session, event, diverge) -> None:
    """Rebuild snapshotted state: schemas, equivalence classes, assertions.

    A snapshot is an absolute statement of the session's state (recorded
    when a log is attached, or a head move lands out of its reach).  The
    session is rebuilt from it in place on a fresh kernel, so offsets
    after it line up with the recorded session's.  The integration it
    records at its head (see
    :meth:`~repro.equivalence.session.AnalysisSession._audit_snapshot`)
    is run again on the state it was computed from and checked against
    the recorded fingerprint; then the snapshot becomes the baseline.
    """
    from repro.kernel.kernel import Kernel
    from repro.kernel.snapshots import apply_state

    def restore(state) -> None:
        with session.kernel.bus.replaying():
            session.reset_to([])
            apply_state(session, state, on_error=partial(diverge, event))

    session.kernel = Kernel()
    session.kernel.bind(session)
    integration = event.payload.get("integration")
    if integration is not None:
        restore(integration.get("state", event.payload))
        _integrate_recorded(session, event, integration, diverge)
    if integration is None or "state" in integration:
        restore(event.payload)
    session.kernel.set_baseline()


def _apply_delete_schema_event(session, event, diverge) -> None:
    """Drop one schema and rebuild from the survivors (Screen 2 Delete)."""
    name = event.payload["name"]
    if name not in {schema.name for schema in session.schemas()}:
        diverge(event, f"schema {name!r} not present at delete")
        return
    session.delete_schema(name)


def _apply_kernel_event(session, event, diverge) -> None:
    """Repeat a recorded head move; a checkout counts from the baseline."""
    kernel = session.kernel
    if event.action == "checkout":
        target = kernel.baseline + int(event.payload["offset"])
        if target <= kernel.bus.offset:
            return kernel.checkout(target)
    elif event.action == "undo" and kernel.undo():
        return
    elif event.action == "redo" and kernel.redo():
        return
    diverge(event, "the recorded head move cannot be repeated")


__all__ = [
    "apply_event",
    "canonical_schema_json",
    "event_label",
    "schema_fingerprint",
]
