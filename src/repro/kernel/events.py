"""Commands and events: the kernel's shared vocabulary.

Every mutation anywhere in the system — a schema registered, an
equivalence declared, an assertion specified or retracted, an
integration performed — is committed as one :class:`Event` on the
session's :class:`~repro.kernel.bus.EventBus`.  The event log is the
source of truth: caches, matrices and federated plans are materialised
views subscribed to it, the audit log is a tap on it, persistence
serialises it, and undo/redo walks it.

An :class:`Event` carries two independent things:

* ``payload`` — the JSON-friendly arguments needed to *re-apply* the
  mutation on a fresh session (exactly the historical audit-event
  payloads, so serialised logs keep their format); and
* ``objects`` / ``schemas`` — invalidation hints for subscribed views:
  the ``(schema, object)`` owners whose equivalence structure changed,
  and the schemas whose *shape* changed.

A :class:`Command` is an *intent* — the same ``scope.action`` vocabulary
before it has been validated and committed.  Dispatching a command
through :meth:`~repro.kernel.kernel.Kernel.dispatch` runs the matching
session mutation, which emits the corresponding event(s) on success.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class _NoChange:
    """Sentinel inverse: the event records an attempt that changed nothing.

    Used for conflict/rejection events, re-statements of an existing
    assertion and equivalence declarations over an already-merged class:
    they are part of the history (the audit log records them) but undo
    skips straight past them.
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return "NO_CHANGE"


#: The inverse of an event that did not change state.
NO_CHANGE = _NoChange()

#: An applicable inverse: ``(scope, action, payload)`` re-dispatched
#: through :func:`repro.kernel.apply.apply_event`, or :data:`NO_CHANGE`.
#: ``None`` (no inverse recorded) means the event is not cheaply
#: invertible and undo falls back to a checkout.
Inverse = "tuple[str, str, dict[str, Any]] | _NoChange | None"


@dataclass(frozen=True)
class Command:
    """An intent addressed to the kernel, in event vocabulary."""

    scope: str
    action: str
    args: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.scope}.{self.action} {self.args}"


@dataclass(frozen=True)
class Event:
    """One committed mutation on the bus.

    ``offset`` is the 1-based position in the log (0 on events delivered
    during replay, which are never appended).  ``txn`` groups the events
    of one transaction/group; a transaction's events are contiguous in
    the log, which is what the concurrency stress test asserts.
    """

    offset: int
    scope: str
    action: str
    payload: dict[str, Any] = field(default_factory=dict)
    txn: int = 0
    #: ``(schema, object)`` owners whose equivalence structure changed
    objects: frozenset = frozenset()
    #: schemas whose shape changed (structures/attributes added/removed)
    schemas: frozenset = frozenset()

    @property
    def label(self) -> str:
        """The ``scope.action`` name, matching audit-log labels."""
        return f"{self.scope}.{self.action}"

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "offset": self.offset,
            "txn": self.txn,
            "scope": self.scope,
            "action": self.action,
            "payload": self.payload,
        }
        if self.objects:
            data["objects"] = sorted(list(pair) for pair in self.objects)
        if self.schemas:
            data["schemas"] = sorted(self.schemas)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Event":
        return cls(
            offset=int(data["offset"]),
            scope=str(data["scope"]),
            action=str(data["action"]),
            payload=dict(data.get("payload", {})),
            txn=int(data.get("txn", 0)),
            objects=frozenset(
                (schema, name) for schema, name in data.get("objects", ())
            ),
            schemas=frozenset(data.get("schemas", ())),
        )

    def __str__(self) -> str:
        return f"@{self.offset} [txn {self.txn}] {self.label} {self.payload}"
