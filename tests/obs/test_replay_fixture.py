"""An audit log that re-anchored with snapshots still replays.

``fixtures/time_travel_snapshots.jsonl`` was recorded when every undo,
redo, checkout, rollback and Delete Schema wrote a full
``session.snapshot`` (and a rolled-back transaction's events reached the
log before the snapshot that covered them).  The sitting: sc1..sc3
adopted, three equivalences, three assertions, an undo and a redo, a
respecify dropped again by a checkout, a rolled-back transaction,
Delete Schema sc3, an equivalence and an assertion, an integration, a
schema edit that re-integrated, an undo of the edit, and one more
equivalence.  Its replay must still verify and land on the
state and the integration result the live session had.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.obs.audit import AuditLog
from repro.obs.replay import replay, schema_fingerprint

FIXTURE = Path(__file__).parent / "fixtures" / "time_travel_snapshots.jsonl"

#: the live session's ``state_payload`` and result-at-head fingerprints
STATE = "e26cd8f3b33f7140b8ca42e8cb47e555a95aa1258ada1c2c293018663b5a4259"
RESULT = "7603c5544104a7044f4e4465cf772ac15adc1a81ca83d174b47478e962f50b75"


def test_a_log_with_time_travel_snapshots_replays_to_the_same_state():
    log = AuditLog.load_jsonl(FIXTURE)
    assert log.actions().count("session.snapshot") == 6
    outcome = replay(log)
    assert outcome.verified
    session = outcome.session
    state = hashlib.sha256(
        json.dumps(session.state_payload(), sort_keys=True).encode()
    ).hexdigest()
    assert state == STATE
    assert schema_fingerprint(session.kernel.result_at_head().schema) == RESULT
