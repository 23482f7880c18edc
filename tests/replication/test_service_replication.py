"""End-to-end service replication: reads, guards, failover, fencing."""

from __future__ import annotations

import time

import pytest

from repro.service import ServiceApp, TenantAuth
from repro.service.replication import InProcessLeaderLink

from tests.replication.conftest import REPL_TOKEN, SC1_DDL, TOKENS, Client


def sync(replica_app):
    return replica_app.replication.sync_once()


class TestReplicaReads:
    def test_replica_serves_identical_fingerprint(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        _, on_leader = seeded_leader.get("/v1/sessions/s1")
        status, on_replica = replica.get("/v1/sessions/s1")
        assert status == 200
        assert (
            on_replica["state_fingerprint"]
            == on_leader["state_fingerprint"]
        )
        assert on_replica["events"] == on_leader["events"]

    def test_replica_serves_schemas_and_suggestions(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        status, payload = replica.get("/v1/sessions/s1/schemas")
        assert status == 200
        assert payload["schemas"] == ["sc1", "sc2"]
        status, payload = replica.get(
            "/v1/sessions/s1/suggestions",
            query={"first": "sc1", "second": "sc2"},
        )
        assert status == 200
        assert "suggestions" in payload

    def test_replica_tracks_later_writes(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        seeded_leader.post(
            "/v1/sessions/s1/assertions",
            {
                "first": "sc1.Department",
                "second": "sc2.Department",
                "kind": "EQUALS",
            },
        )
        sync(replica_app)
        _, on_leader = seeded_leader.get("/v1/sessions/s1")
        _, on_replica = replica.get("/v1/sessions/s1")
        assert (
            on_replica["state_fingerprint"]
            == on_leader["state_fingerprint"]
        )

    def test_unknown_session_is_404_on_replica(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        status, payload = replica.get("/v1/sessions/ghost")
        assert status == 404
        assert payload["error"]["code"] == "session_not_found"

    def test_replica_info_is_the_listing_row(
        self, seeded_leader, replica_app
    ):
        sync(replica_app)
        manager = replica_app.manager
        (row,) = manager.sessions("acme")
        assert manager.info("acme", "s1") == row

    def test_replica_stats_reflect_appliers(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        status, payload = replica.get("/v1/stats")
        assert status == 200
        assert payload["manager"]["resident_sessions"] == 1


class TestWriteRouting:
    def test_write_on_replica_is_typed_503(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        status, payload = replica.post(
            "/v1/sessions/s1/undo"
        )
        assert status == 503
        assert payload["error"]["code"] == "replication_not_leader"

    def test_create_on_replica_refused(self, replica, replica_app):
        status, payload = replica.post(
            "/v1/sessions", {"session_id": "nope"}
        )
        assert status == 503
        assert payload["error"]["code"] == "replication_not_leader"

    def test_leader_still_writable(self, seeded_leader):
        status, _ = seeded_leader.post("/v1/sessions/s1/undo")
        assert status == 200


class TestLagGuards:
    def test_min_offset_guard_503_with_retry_after(
        self, seeded_leader, replica_app
    ):
        sync(replica_app)
        client = Client(replica_app)
        response = replica_app.dispatch(
            __import__("repro.service.http", fromlist=["Request"]).Request(
                method="GET",
                path="/v1/sessions/s1",
                headers={
                    "authorization": "Bearer token-acme",
                    "x-repro-min-offset": "9999",
                },
            )
        )
        assert response.status == 503
        payload = response.json_payload()
        assert payload["error"]["code"] == "replica_lagging"
        assert "retry-after" in response.headers
        assert int(response.headers["retry-after"]) >= 1

    def test_satisfied_min_offset_passes(self, seeded_leader, replica_app):
        sync(replica_app)
        _, detail = seeded_leader.get("/v1/sessions/s1")
        response = replica_app.dispatch(
            __import__("repro.service.http", fromlist=["Request"]).Request(
                method="GET",
                path="/v1/sessions/s1",
                headers={
                    "authorization": "Bearer token-acme",
                    "x-repro-min-offset": str(detail["events"]),
                },
            )
        )
        assert response.status == 200

    def test_stale_replica_refuses_reads(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        replica_app.replication.max_lag_s = 0.0
        time.sleep(0.01)
        status, payload = replica.get("/v1/sessions/s1")
        assert status == 503
        assert payload["error"]["code"] == "replica_lagging"

    def test_never_synced_replica_refuses_session_reads(
        self, seeded_leader, replica, replica_app
    ):
        # no sync_once: lag is unbounded, but the 404 path still wins
        # for sessions the replica has never heard of
        status, payload = replica.get("/v1/sessions/s1")
        assert status == 404


def promote(client):
    """Promotion is an operator action: present the replication token."""
    return client.post("/v1/replication/promote", token=REPL_TOKEN)


class TestFailover:
    def test_promote_makes_replica_writable(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        status, payload = promote(replica)
        assert status == 200
        assert payload["role"] == "leader"
        assert payload["epoch"] == 2
        assert payload["materialized"] == ["acme/s1"]
        status, _ = replica.post("/v1/sessions/s1/undo")
        assert status == 200

    def test_promotion_preserves_fingerprint(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        _, before = seeded_leader.get("/v1/sessions/s1")
        promote(replica)
        _, after = replica.get("/v1/sessions/s1")
        assert (
            after["state_fingerprint"] == before["state_fingerprint"]
        )

    def test_old_leader_is_fenced_after_promote(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        promote(replica)
        status, payload = seeded_leader.post("/v1/sessions/s1/undo")
        assert status == 503
        assert payload["error"]["code"] == "replication_fenced"

    def test_fencing_survives_leader_restart(
        self, tmp_path, seeded_leader, replica, replica_app, leader_app
    ):
        sync(replica_app)
        promote(replica)
        leader_app.close()
        revived = ServiceApp(
            tmp_path / "leader",
            auth=TenantAuth.from_tokens(TOKENS),
            replication_autostart=False,
        )
        try:
            client = Client(revived)
            status, payload = client.post("/v1/sessions/s1/undo")
            assert status == 503
            assert payload["error"]["code"] == "replication_fenced"
            # reads still work on the fenced node
            assert client.get("/v1/sessions/s1")[0] == 200
        finally:
            revived.close()

    def test_promote_is_idempotent_on_leader(self, leader):
        status, payload = promote(leader)
        assert status == 200
        assert payload["role"] == "leader"
        assert payload["materialized"] == []

    def test_fence_requires_strictly_higher_epoch(self, leader):
        status, payload = leader.post(
            "/v1/replication/fence", {"epoch": 1}, token=REPL_TOKEN
        )
        assert status == 200
        assert payload["fenced_now"] is False
        assert payload["role"] == "leader"
        status, payload = leader.post(
            "/v1/replication/fence", {"epoch": 2}, token=REPL_TOKEN
        )
        assert payload["fenced_now"] is True
        assert payload["role"] == "fenced"

    def test_leader_delete_does_not_resurrect_on_replica(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        assert replica.get("/v1/sessions/s1")[0] == 200
        status, payload = seeded_leader.delete(
            "/v1/sessions/s1", query={"purge": "1"}
        )
        assert status == 200 and payload["purged"] is True
        sync(replica_app)
        # the delete propagated: the replica stops serving it...
        status, payload = replica.get("/v1/sessions/s1")
        assert status == 404
        # ...and promotion does not materialize it back to durability
        status, payload = promote(replica)
        assert status == 200
        assert payload["materialized"] == []
        assert replica.get("/v1/sessions/s1")[0] == 404


class TestReplicationSurfaces:
    def test_status_reports_role_and_lag(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        status, payload = replica.get("/v1/replication/status")
        assert status == 200
        assert payload["role"] == "replica"
        assert payload["offset_behind"] == 0
        assert payload["lag_seconds"] is not None

    def test_leader_counts_followers(
        self, seeded_leader, leader, replica_app
    ):
        sync(replica_app)
        status, payload = leader.get("/v1/replication/status")
        assert status == 200
        assert payload["followers_connected"] == 1

    def test_replica_recovery_surfaces_leader_quarantine(
        self, tmp_path, seeded_leader, replica, replica_app, leader_app
    ):
        sync(replica_app)
        # quarantined files appear on the leader (as crash recovery
        # would leave them); the names must reach follower operators
        wal = (
            tmp_path / "leader" / "acme" / "s1.json.wal"
        )
        (wal / "wal-0000000009.seg.corrupt").write_bytes(b"xx")
        sync(replica_app)
        status, payload = replica.get("/v1/sessions/s1/recovery")
        assert status == 200
        assert payload["recovery"]["segments_quarantined"] == [
            "wal-0000000009.seg.corrupt"
        ]

    def test_wal_endpoint_requires_known_session(self, seeded_leader):
        status, payload = seeded_leader.get(
            "/v1/replication/wal/acme/ghost"
        )
        assert status == 404

    def test_replication_endpoints_require_auth(self, leader_app):
        client = Client(leader_app, token=None)
        status, _ = client.get("/v1/replication/status")
        assert status == 401

    def test_query_posts_stay_replica_served(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        # a federated query is a read; it must not bounce with 503.
        # (The library may still reject the request text — that is a
        # 4xx/5xx from the handler, not the routing gate.)
        status, payload = replica.post(
            "/v1/sessions/s1/query", {"request": "select Name from Ghost"}
        )
        assert status != 503


class TestReplicationAuth:
    """Tenant tokens must not reach other tenants' streams or controls."""

    def test_tenant_cannot_fetch_other_tenants_wal(self, seeded_leader):
        intruder = Client(seeded_leader.app, token="token-beta")
        status, payload = intruder.get("/v1/replication/wal/acme/s1")
        assert status == 403
        assert payload["error"]["code"] == "tenant_forbidden"

    def test_tenant_cannot_fetch_other_tenants_snapshot(
        self, seeded_leader
    ):
        intruder = Client(seeded_leader.app, token="token-beta")
        status, payload = intruder.get(
            "/v1/replication/snapshot/acme/s1"
        )
        assert status == 403
        assert payload["error"]["code"] == "tenant_forbidden"

    def test_tenant_reaches_its_own_stream(self, seeded_leader):
        # token-acme fetching acme's own WAL/snapshot stays allowed
        assert seeded_leader.get("/v1/replication/wal/acme/s1")[0] == 200
        assert (
            seeded_leader.get("/v1/replication/snapshot/acme/s1")[0] == 200
        )

    def test_operator_token_reaches_any_stream(self, seeded_leader):
        operator = Client(seeded_leader.app, token=REPL_TOKEN)
        assert operator.get("/v1/replication/wal/acme/s1")[0] == 200
        assert operator.get("/v1/replication/snapshot/acme/s1")[0] == 200

    def test_inventory_is_tenant_scoped_for_tenant_tokens(
        self, seeded_leader
    ):
        beta = Client(seeded_leader.app, token="token-beta")
        assert beta.post("/v1/sessions", {"session_id": "b1"})[0] == 201
        _, payload = beta.get("/v1/replication/sessions")
        assert {row["tenant"] for row in payload["sessions"]} == {"beta"}
        operator = Client(seeded_leader.app, token=REPL_TOKEN)
        _, payload = operator.get("/v1/replication/sessions")
        assert {row["tenant"] for row in payload["sessions"]} == {
            "acme",
            "beta",
        }

    def test_tenant_token_cannot_fence(self, leader):
        status, payload = leader.post(
            "/v1/replication/fence", {"epoch": 10**9}
        )
        assert status == 403
        assert payload["error"]["code"] == "tenant_forbidden"
        # the leader is untouched and still writable
        status, payload = leader.get(
            "/v1/replication/status", token=REPL_TOKEN
        )
        assert payload["role"] == "leader"
        assert leader.post("/v1/sessions", {"session_id": "w1"})[0] == 201

    def test_tenant_token_cannot_promote(
        self, seeded_leader, replica, replica_app
    ):
        sync(replica_app)
        status, payload = replica.post("/v1/replication/promote")
        assert status == 403
        assert payload["error"]["code"] == "tenant_forbidden"
        _, payload = replica.get("/v1/replication/status")
        assert payload["role"] == "replica"

    def test_unconfigured_node_refuses_operator_surfaces(self, tmp_path):
        # no replication token configured: fence/promote are closed, not
        # open — there is no credential that reaches them
        app = ServiceApp(
            tmp_path / "bare",
            auth=TenantAuth.from_tokens(TOKENS),
            replication_autostart=False,
        )
        try:
            client = Client(app)
            status, _ = client.post(
                "/v1/replication/fence", {"epoch": 99}
            )
            assert status == 403
            status, _ = client.post(
                "/v1/replication/promote", token=REPL_TOKEN
            )
            assert status == 401  # not a tenant token either
        finally:
            app.close()
