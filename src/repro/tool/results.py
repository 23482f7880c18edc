"""Typed results for the :class:`~repro.tool.session.ToolSession` facades.

The session's operational methods used to hand back whatever the
underlying engine produced — a raw
:class:`~repro.federation.engine.FederationResult`, the engine object
itself, a mutable :class:`~repro.kernel.recovery.RecoveryReport`.  Those
shapes were fine for the screens but awkward for remote callers: the
HTTP service (:mod:`repro.service`) needs frozen, JSON-serializable
values with a declared field set.

This module is that declared set.  Each class is a frozen dataclass
whose :meth:`to_wire` yields plain JSON types only; rich in-process
objects (the engine, the plan, the health report) stay reachable through
non-wire fields so the screens lose nothing.

* :class:`GlobalRequestResult` — one federated query's answer
  (:meth:`ToolSession.execute_global_request`);
* :class:`FederationAttachment` — what a federation hook-up wired
  (:meth:`ToolSession.connect_federation`);
* :class:`RecoveryInfo` — how the last open rebuilt the session
  (:meth:`ToolSession.recovery_info`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.federation.engine import FederationEngine, FederationResult
    from repro.federation.health import FederationHealth
    from repro.kernel.recovery import RecoveryReport


@dataclass(frozen=True)
class GlobalRequestResult:
    """One global request, answered by the federation.

    The wire fields are scalars/strings only; ``health`` and ``raw``
    carry the full in-process objects for screens and tests.
    """

    #: the request text as the DDA typed it
    request: str
    #: merged answer rows (tuples, in merge order)
    rows: tuple[tuple, ...]
    #: the merge strategy the plan justified (``union``, ``outerjoin``, ...)
    strategy: str
    #: component schemas the plan fanned out to
    components: tuple[str, ...]
    #: rows removed by duplicate elimination / subsumption
    eliminated: int
    #: every planned component answered
    ok: bool
    #: some components answered, some failed (a partial answer)
    degraded: bool
    #: merge conflicts, described (empty when the merge was clean)
    conflicts: tuple[str, ...]
    #: the per-component outcome report (not serialized directly)
    health: "FederationHealth" = field(compare=False, repr=False)
    #: the engine's full result object, for in-process callers
    raw: "FederationResult" = field(compare=False, repr=False)

    @classmethod
    def from_engine_result(
        cls, request: str, result: "FederationResult"
    ) -> "GlobalRequestResult":
        return cls(
            request=request,
            rows=tuple(tuple(row) for row in result.rows),
            strategy=str(result.plan.strategy),
            components=tuple(result.plan.components),
            eliminated=result.eliminated,
            ok=result.ok,
            degraded=result.degraded,
            conflicts=tuple(c.describe() for c in result.conflicts),
            health=result.health,
            raw=result,
        )

    def summary(self) -> str:
        """One line for screens, status bars and audit records."""
        return self.raw.summary()

    def to_wire(self) -> dict[str, Any]:
        return {
            "request": self.request,
            "rows": [list(row) for row in self.rows],
            "row_count": len(self.rows),
            "strategy": self.strategy,
            "components": list(self.components),
            "eliminated": self.eliminated,
            "ok": self.ok,
            "degraded": self.degraded,
            "conflicts": list(self.conflicts),
            "health": self.health.to_dict(),
            "summary": self.summary(),
        }


@dataclass(frozen=True)
class FederationAttachment:
    """What :meth:`ToolSession.connect_federation` wired up."""

    #: component schemas with a backend attached, sorted
    components: tuple[str, ...]
    #: the integrated schema the requests are posed against
    integrated_schema: str
    #: components that got seeded demo stores (none when real stores came in)
    demo_components: tuple[str, ...]
    #: the live engine (not serialized; screens use it for plans/breakers)
    engine: "FederationEngine" = field(compare=False, repr=False)

    def to_wire(self) -> dict[str, Any]:
        return {
            "components": list(self.components),
            "integrated_schema": self.integrated_schema,
            "demo_components": list(self.demo_components),
        }


@dataclass(frozen=True)
class RecoveryInfo:
    """How the last :meth:`ToolSession.open` rebuilt the session.

    A frozen, wire-ready mirror of
    :class:`~repro.kernel.recovery.RecoveryReport`.
    """

    #: ``fresh``, ``save``, ``save+wal`` or ``wal``
    source: str
    #: WAL events applied on top of the save's log
    events_replayed: int
    #: the head offset the recovered session stands at
    head: int
    #: torn bytes dropped from the final WAL segment on open
    bytes_truncated: int
    #: WAL segments renamed ``*.corrupt`` on open
    segments_quarantined: tuple[str, ...]
    #: why the save was unusable, when recovery fell back to the WAL
    save_error: str | None
    #: why replay stopped early (a generation gap), if it did
    replay_stopped: str | None
    #: True when WAL records contributed to the recovered state
    used_wal: bool
    #: True when no repair of any kind was needed
    clean: bool

    @classmethod
    def from_report(cls, report: "RecoveryReport") -> "RecoveryInfo":
        return cls(
            source=report.source,
            events_replayed=report.events_replayed,
            head=report.head,
            bytes_truncated=report.bytes_truncated,
            segments_quarantined=tuple(report.segments_quarantined),
            save_error=report.save_error,
            replay_stopped=report.replay_stopped,
            used_wal=report.used_wal,
            clean=report.clean,
        )

    def to_wire(self) -> dict[str, Any]:
        return {
            "source": self.source,
            "events_replayed": self.events_replayed,
            "head": self.head,
            "bytes_truncated": self.bytes_truncated,
            "segments_quarantined": list(self.segments_quarantined),
            "save_error": self.save_error,
            "replay_stopped": self.replay_stopped,
            "used_wal": self.used_wal,
            "clean": self.clean,
        }


__all__ = [
    "FederationAttachment",
    "GlobalRequestResult",
    "RecoveryInfo",
]
