"""Parking a session closes its write-ahead log segment.

A parked session is saved and dropped; its kernel is gone, so nothing
can append to its WAL again.  The open segment file must be closed with
it, on an eviction and on ``ServiceApp.close()`` alike, and the session
must still rehydrate to the same state.
"""

from __future__ import annotations

from repro.service import ServiceApp, TenantAuth

from tests.service.conftest import SC1_DDL, TOKENS, Client


def _app(root) -> ServiceApp:
    return ServiceApp(root, auth=TenantAuth.from_tokens(TOKENS), max_resident=4)


def _wal(app: ServiceApp, session_id: str):
    """The write-ahead log of a resident session.

    Parking saves first, and a save starts a fresh segment, so the file
    to check is whichever one the log holds once parking is done.
    """
    return app.manager._records[("acme", session_id)].session.wal


def _segment_closed(wal) -> bool:
    return wal._file is None


def _session_with_schema(client: Client) -> str:
    client.post("/v1/sessions", {"session_id": "s"})
    client.post("/v1/sessions/s/schemas", {"ddl": SC1_DDL})
    return client.get("/v1/sessions/s")[1]["state_fingerprint"]


def test_eviction_closes_the_wal_segment(tmp_path):
    app = _app(tmp_path / "service")
    try:
        client = Client(app)
        before = _session_with_schema(client)
        wal = _wal(app, "s")
        assert not _segment_closed(wal)
        status, payload = client.delete("/v1/sessions/s")
        assert (status, payload["evicted"]) == (200, True)
        assert _segment_closed(wal)
        # rehydration reopens the log and recovers the same state
        assert client.get("/v1/sessions/s")[1]["state_fingerprint"] == before
        assert not _segment_closed(_wal(app, "s"))
    finally:
        app.close()


def test_app_close_closes_every_wal_segment(tmp_path):
    root = tmp_path / "service"
    app = _app(root)
    client = Client(app)
    before = _session_with_schema(client)
    wal = _wal(app, "s")
    app.close()
    assert _segment_closed(wal)
    reopened = _app(root)
    try:
        after = Client(reopened).get("/v1/sessions/s")[1]["state_fingerprint"]
        assert after == before
    finally:
        reopened.close()
