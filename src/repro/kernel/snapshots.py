"""Snapshots: absolute statements of session state at a log offset.

A :class:`Snapshot` pairs an event-log offset with the session's
replayable state payload at that offset (the same ``schemas`` /
``equivalences`` / ``assertions`` shape the audit log's
``session.snapshot`` events carry).  A kernel keeps one, at its
baseline: restoring any offset is *baseline + replay of the log* — the
kernel's ``checkout``, persistence-restore, undo fallback and a failed
transaction's rollback all start with :func:`apply_state` on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.equivalence.session import AnalysisSession


@dataclass(frozen=True)
class Snapshot:
    """Session state at one event-log offset, in replayable form."""

    offset: int
    state: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {"offset": self.offset, "state": self.state}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Snapshot":
        return cls(offset=int(data["offset"]), state=dict(data["state"]))


def apply_state(
    session: "AnalysisSession",
    state: dict[str, Any],
    on_error: Callable[[str], None] | None = None,
) -> None:
    """Re-drive a session into a snapshotted state.

    The session is assumed empty (callers reset it first).  Equivalence
    *partitions* are reconstructed exactly; class numbers may be
    renumbered, which nothing downstream of Screen 7's display depends
    on.  ``on_error`` receives a message per assertion that no longer
    applies (strict callers raise from it).
    """
    from repro.assertions.kinds import Source
    from repro.ecr.json_io import schema_from_dict
    from repro.errors import AssertionSpecError, ConflictError

    for schema_data in state.get("schemas", ()):
        session.add_schema(schema_from_dict(schema_data))
    for members in state.get("equivalences", ()):
        anchor = members[0]
        for other in members[1:]:
            session.registry.declare_equivalent(anchor, other)
    for entry in state.get("assertions", ()):
        try:
            session.specify(
                entry["first"],
                entry["second"],
                int(entry["kind"]),
                relationships=bool(entry.get("relationships", False)),
                source=Source[entry.get("source", "DDA")],
                note=entry.get("note", ""),
            )
        except (ConflictError, AssertionSpecError) as exc:
            if on_error is not None:
                on_error(
                    f"snapshot assertion raised {type(exc).__name__}"
                )


__all__ = ["Snapshot", "apply_state"]
