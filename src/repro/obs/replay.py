"""Deterministic replay of a recorded DDA audit log.

:func:`replay` re-drives a fresh
:class:`~repro.equivalence.session.AnalysisSession` from an
:class:`~repro.obs.audit.AuditLog`, event by event, and verifies that the
session behaves exactly as the recorded one did: conflicts recur where
they were recorded, and every ``integrate`` event reproduces a
**bitwise-identical** integrated schema (checked through
:func:`schema_fingerprint`, a SHA-256 over the canonical JSON form).

That makes an audit log a portable, diffable reproduction of a DDA
sitting: attach a log to a live session (or to the interactive tool's
embedded session), save the JSONL, and anyone can re-run the sitting and
obtain the same integrated schema — or be told precisely which event
diverged.

The audit log journals the kernel's committed groups and head moves, as
the WAL does, and replay is literally kernel event application: this
module is a thin loop over :func:`repro.kernel.apply.apply_event`, the
same engine that drives kernel ``checkout``, undo and redo.  The
fingerprint helpers moved to :mod:`repro.kernel.apply` and are
re-exported here unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from contextlib import nullcontext
from itertools import groupby
from typing import TYPE_CHECKING, Iterable

from repro.errors import ReplayError
from repro.kernel.apply import (
    apply_event,
    canonical_schema_json,
    event_label,
    schema_fingerprint,
)
from repro.obs.audit import AuditEvent, AuditLog

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.equivalence.session import AnalysisSession
    from repro.integration.result import IntegrationResult

__all__ = [
    "ReplayOutcome",
    "canonical_schema_json",
    "replay",
    "schema_fingerprint",
]


@dataclass
class ReplayOutcome:
    """What :func:`replay` produced."""

    #: the freshly driven session, in its final state
    session: "AnalysisSession"
    #: every integration result, in recorded order
    results: "list[IntegrationResult]" = field(default_factory=list)
    #: recorded vs replayed fingerprint per integrate event
    fingerprints: list[tuple[str, str]] = field(default_factory=list)
    #: events that diverged (only populated with ``strict=False``)
    divergences: list[str] = field(default_factory=list)

    @property
    def verified(self) -> bool:
        """Whether every check passed (always true after a strict replay)."""
        return not self.divergences and all(
            recorded == replayed for recorded, replayed in self.fingerprints
        )


def replay(
    log: AuditLog | Iterable[AuditEvent], *, strict: bool = True
) -> ReplayOutcome:
    """Re-drive a fresh :class:`AnalysisSession` from an audit log.

    With ``strict`` (the default) any divergence — an integrate event
    whose schema fingerprint differs, a recorded conflict that no longer
    conflicts, a recorded success that now raises — aborts with
    :class:`~repro.errors.ReplayError` naming the event.  With
    ``strict=False`` divergences are collected on the outcome instead.
    """
    from repro.equivalence.session import AnalysisSession

    session = AnalysisSession()
    outcome = ReplayOutcome(session)

    def diverge(event, message: str) -> None:
        label = f"{event_label(event)}: {message}"
        if strict:
            raise ReplayError(label)
        outcome.divergences.append(label)

    # a recorded group commits as one group again; untagged events (old
    # logs, snapshots, head moves) stand alone
    for txn, group in groupby(log, key=lambda event: event.txn or -event.seq):
        with session.kernel.group() if txn > 0 else nullcontext():
            for event in group:
                apply_event(
                    session,
                    event,
                    diverge,
                    results=outcome.results,
                    fingerprints=outcome.fingerprints,
                )
    return outcome
