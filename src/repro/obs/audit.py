"""The DDA audit log: a replayable record of everything a session did.

The paper's central claim is about reducing DDA effort, yet nothing in the
original tool records *what the DDA actually did* in a sitting.  The audit
log fixes that: every registry mutation (schema registration, equivalence
declared/removed, schema refreshed), every assertion specified or
retracted (on either network), every conflict the tool raised, and every
integration action is appended as a structured :class:`AuditEvent` with
enough payload to re-drive a fresh
:class:`~repro.equivalence.session.AnalysisSession` deterministically —
:mod:`repro.obs.replay` does exactly that and checks the final integrated
schema is bitwise identical.

The session's kernel feeds the log from the same place as the WAL, so
the log sees every committed group (tagged with its ``txn``; a
rolled-back one never arrives) and every head move (``kernel.undo``,
``kernel.redo``, ``kernel.checkout``), whatever surface drove them.  A
``session.snapshot`` anchors the log where it was attached, and again
where a head move lands out of its replay's reach.  Attach a log with
:meth:`AnalysisSession.attach_audit`.

The serialised form is JSONL — one event per line — so logs diff, grep
and append cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterator


@dataclass(frozen=True)
class AuditEvent:
    """One recorded action.

    ``scope`` names the component that emitted it (``registry``,
    ``object_network``, ``relationship_network``, ``session``, ...);
    ``action`` the operation; ``payload`` the JSON-friendly arguments
    needed to replay it; ``txn`` the id shared by one committed group's
    events (``None`` on snapshots, head moves and older logs).
    """

    seq: int
    scope: str
    action: str
    payload: dict[str, Any] = field(default_factory=dict)
    txn: int | None = None

    def to_dict(self) -> dict[str, Any]:
        fields = vars(self).items()
        return {key: value for key, value in fields if value is not None}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AuditEvent":
        return cls(
            seq=int(data["seq"]),
            scope=str(data["scope"]),
            action=str(data["action"]),
            payload=dict(data.get("payload", {})),
            txn=data.get("txn"),
        )

    def __str__(self) -> str:
        return f"#{self.seq} {self.scope}.{self.action} {self.payload}"


class AuditLog:
    """An append-only, JSONL-serialisable sequence of :class:`AuditEvent`."""

    def __init__(self) -> None:
        self.events: list[AuditEvent] = []
        self._next_seq = 1

    def emit(
        self,
        scope: str,
        action: str,
        payload: dict[str, Any],
        txn: int | None = None,
    ) -> AuditEvent:
        """Append one event (the session's kernel calls this)."""
        event = AuditEvent(self._next_seq, scope, action, payload, txn)
        self._next_seq += 1
        self.events.append(event)
        return event

    # -- container protocol -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[AuditEvent]:
        return iter(self.events)

    def actions(self) -> list[str]:
        """``scope.action`` labels in order — handy for test assertions."""
        return [f"{event.scope}.{event.action}" for event in self.events]

    # -- serialisation ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per event, in order."""
        return "\n".join(
            json.dumps(event.to_dict(), sort_keys=True) for event in self.events
        ) + ("\n" if self.events else "")

    @classmethod
    def from_jsonl(cls, text: str) -> "AuditLog":
        """Parse a log serialised by :meth:`to_jsonl`."""
        log = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            event = AuditEvent.from_dict(json.loads(line))
            log.events.append(event)
            log._next_seq = max(log._next_seq, event.seq + 1)
        return log

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())

    @classmethod
    def load_jsonl(cls, path) -> "AuditLog":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())
