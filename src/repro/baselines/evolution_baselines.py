"""The from-scratch rebuild oracle incremental evolution is pinned to.

:meth:`AnalysisSession.apply_edit
<repro.equivalence.session.AnalysisSession.apply_edit>` repairs the
equivalence registry, the assertion networks and the memoized matrices
*locally* — only the cells an edit touches are recomputed.  The oracle
here takes the expensive road instead: serialize the edited session's
canonical :meth:`state_payload
<repro.equivalence.session.AnalysisSession.state_payload>`, build a
**fresh** session from it (re-adding every schema, re-declaring every
equivalence class, re-specifying every surviving assertion), and
fingerprint both.  Because the payload is history-independent, the two
fingerprints must be bitwise identical — any divergence means a repair
step forgot or corrupted state.

The same trick pins re-integrated results:
:func:`reintegrate_from_scratch` runs a cold :class:`Integrator
<repro.integration.integrator.Integrator>` over the rebuilt session and
returns the result schema's fingerprint for comparison against the
result an edit's re-integration recorded.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.assertions.kinds import AssertionKind, Source
from repro.ecr.json_io import schema_from_dict

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.equivalence.session import AnalysisSession


def state_payload_fingerprint(session: "AnalysisSession") -> str:
    """SHA-256 over the canonical, history-independent state payload."""
    canonical = json.dumps(
        session.state_payload(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def session_from_payload(payload: dict) -> "AnalysisSession":
    """A fresh session replaying a canonical ``state_payload`` dict.

    Schemas are re-added (which re-seeds the implicit IS-A assertions),
    equivalence classes re-declared through their sorted anchor member,
    and every surviving specified assertion re-specified with its
    original source and note.  The input payload must describe a
    consistent session — it came from one.
    """
    from repro.equivalence.session import AnalysisSession

    fresh = AnalysisSession()
    for schema_dict in payload["schemas"]:
        fresh.add_schema(schema_from_dict(schema_dict))
    for members in payload["equivalences"]:
        anchor, *rest = members
        for other in rest:
            fresh.declare_equivalent(anchor, other)
    for entry in payload["assertions"]:
        fresh.specify(
            entry["first"],
            entry["second"],
            AssertionKind.from_code(entry["kind"]),
            relationships=entry["relationships"],
            source=Source[entry["source"]],
            note=entry["note"],
        )
    return fresh


def rebuild_session(session: "AnalysisSession") -> "AnalysisSession":
    """The oracle: a cold session holding the live session's state."""
    return session_from_payload(session.state_payload())


def rebuild_matches(session: "AnalysisSession") -> tuple[str, str]:
    """(live fingerprint, rebuilt fingerprint) — equal iff repair was sound."""
    live = state_payload_fingerprint(session)
    rebuilt = state_payload_fingerprint(rebuild_session(session))
    return live, rebuilt


def reintegrate_from_scratch(
    session: "AnalysisSession",
    first_schema: str,
    second_schema: str,
    *,
    result_name: str = "integrated",
    options=None,
) -> str:
    """Fingerprint of a cold integration over the rebuilt session.

    The result an edit re-integrated must fingerprint identically,
    however the session got to its state (live, replayed, restored).
    """
    from repro.integration.integrator import Integrator
    from repro.integration.options import IntegrationOptions
    from repro.kernel.apply import schema_fingerprint

    rebuilt = rebuild_session(session)
    integrator = Integrator(
        rebuilt.registry,
        rebuilt.object_network,
        rebuilt.relationship_network,
        options if options is not None else IntegrationOptions(),
    )
    result = integrator.integrate(first_schema, second_schema, result_name)
    return schema_fingerprint(result.schema)


__all__ = [
    "rebuild_matches",
    "rebuild_session",
    "reintegrate_from_scratch",
    "session_from_payload",
    "state_payload_fingerprint",
]
