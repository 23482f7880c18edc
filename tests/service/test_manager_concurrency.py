"""Concurrency lifecycle: eviction and rehydration under multi-tenant load.

The contracts the service stands on:

* N threads hammering **distinct** tenants while the manager aggressively
  evicts/rehydrates never corrupt anyone's session;
* an evicted-then-rehydrated session is bitwise-identical to the live one
  by kernel ``state_payload`` fingerprint;
* eviction refuses sessions pinned by a mid-flight background job.
"""

from __future__ import annotations

import threading

import pytest

from repro.service import SessionManager, state_fingerprint
from repro.service.errors import (
    SessionBusyError,
    SessionExistsError,
    UnknownSessionError,
)

DDL = """\
schema {name}
entity Thing
  attr Name : string key
  attr Rank : int
entity Box
  attr Name : string key
"""


def add_schema(session, name: str) -> None:
    from repro.ecr.ddl import parse_ddl

    session.adopt_schema(parse_ddl(DDL.format(name=name)))


class TestFingerprintRoundTrip:
    def test_evict_then_rehydrate_is_identical(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=4)
        manager.create("acme", "s1")
        with manager.acquire("acme", "s1") as session:
            add_schema(session, "sc_a")
            add_schema(session, "sc_b")
            session.analysis.declare_equivalent(
                "sc_a.Thing.Name", "sc_b.Thing.Name"
            )
            live = state_fingerprint(session)
        assert manager.evict("acme", "s1") is True
        assert manager.resident_count() == 0
        assert manager.fingerprint("acme", "s1") == live
        # and the rehydrated session keeps working
        with manager.acquire("acme", "s1") as session:
            assert set(session.schemas) == {"sc_a", "sc_b"}
        assert manager.rehydrations >= 1

    def test_double_evict_is_a_noop(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=4)
        manager.create("acme", "s1")
        assert manager.evict("acme", "s1") is True
        assert manager.evict("acme", "s1") is False


class TestResidencyBounds:
    def test_lru_count_bound_holds(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=3)
        for index in range(8):
            manager.create("acme", f"s{index}")
        assert manager.resident_count() <= 3
        assert manager.evictions >= 5
        # every parked session still lists and still opens
        listed = manager.sessions("acme")
        assert len(listed) == 8
        for info in listed:
            assert manager.fingerprint("acme", info.session_id)

    def test_memory_watermark_bound(self, tmp_path):
        manager = SessionManager(
            tmp_path, max_resident=64, max_resident_bytes=10_000
        )
        for index in range(6):
            manager.create("acme", f"s{index}")
        # ~4KiB floor per kernel: only a couple fit under 10KB
        assert manager.resident_count() <= 2
        assert manager.evictions >= 1

    def test_lru_order_parks_coldest_first(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=8)
        for index in range(3):
            manager.create("acme", f"s{index}")
        # touch s0 so s1 becomes the coldest
        with manager.acquire("acme", "s0"):
            pass
        manager.max_resident = 2
        with manager.acquire("acme", "s2"):
            pass  # release triggers enforcement
        infos = {
            info.session_id: info.resident
            for info in manager.sessions("acme")
        }
        assert infos["s1"] is False  # the coldest was parked
        assert infos["s2"] is True


class TestPinning:
    def test_pinned_session_refuses_eviction(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=4)
        manager.create("acme", "s1")
        manager.pin("acme", "s1")
        try:
            with pytest.raises(SessionBusyError, match="pinned"):
                manager.evict("acme", "s1")
        finally:
            manager.unpin("acme", "s1")
        assert manager.evict("acme", "s1") is True

    def test_pinned_session_survives_bound_enforcement(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=2)
        manager.create("acme", "pinned")
        manager.pin("acme", "pinned")
        try:
            for index in range(5):
                manager.create("acme", f"s{index}")
            infos = {
                info.session_id: info
                for info in manager.sessions("acme")
            }
            assert infos["pinned"].resident is True
        finally:
            manager.unpin("acme", "pinned")

    def test_mid_request_session_refuses_eviction(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=4)
        manager.create("acme", "s1")
        entered = threading.Event()
        release = threading.Event()

        def hold():
            with manager.acquire("acme", "s1"):
                entered.set()
                release.wait(timeout=30)

        thread = threading.Thread(target=hold)
        thread.start()
        try:
            assert entered.wait(timeout=30)
            with pytest.raises(SessionBusyError, match="serving"):
                manager.evict("acme", "s1")
        finally:
            release.set()
            thread.join(timeout=30)
        assert manager.evict("acme", "s1") is True


class TestMultiTenantHammer:
    THREADS = 8
    ROUNDS = 12

    def test_distinct_tenants_under_eviction_churn(self, tmp_path):
        """N workers × distinct tenants, resident pool far too small."""
        manager = SessionManager(tmp_path, max_resident=2)
        errors: list[BaseException] = []
        fingerprints: dict[str, str] = {}
        barrier = threading.Barrier(self.THREADS)

        def worker(index: int) -> None:
            tenant = f"tenant{index}"
            try:
                manager.create(tenant, "work")
                barrier.wait(timeout=60)
                for round_number in range(self.ROUNDS):
                    with manager.acquire(tenant, "work") as session:
                        add_schema(session, f"sc{round_number}")
                    # every other round, park explicitly (if not busy)
                    if round_number % 2:
                        try:
                            manager.evict(tenant, "work")
                        except SessionBusyError:
                            pass
                with manager.acquire(tenant, "work") as session:
                    assert len(session.schemas) == self.ROUNDS, (
                        f"{tenant} lost schemas: {sorted(session.schemas)}"
                    )
                    fingerprints[tenant] = state_fingerprint(session)
            except BaseException as exc:  # noqa: BLE001 - collect, re-raise
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors

        # the pool stayed bounded through the churn
        assert manager.resident_count() <= 2
        assert manager.evictions > 0
        assert manager.rehydrations > 0

        # park everything, rehydrate, and every tenant's state survived
        manager.shutdown()
        assert manager.resident_count() == 0
        for index in range(self.THREADS):
            tenant = f"tenant{index}"
            assert (
                manager.fingerprint(tenant, "work")
                == fingerprints[tenant]
            ), f"{tenant} diverged across evict/rehydrate"

    def test_tenant_files_stay_disjoint(self, tmp_path):
        manager = SessionManager(tmp_path, max_resident=2)
        for index in range(4):
            manager.create(f"tenant{index}", "work")
        manager.shutdown()
        for index in range(4):
            tenant_dir = tmp_path / f"tenant{index}"
            assert (tenant_dir / "work.json").exists()
            files = {p.name for p in tenant_dir.iterdir()}
            assert files <= {"work.json", "work.json.wal"}


class TestErrors:
    def test_unknown_session(self, tmp_path):
        manager = SessionManager(tmp_path)
        with pytest.raises(UnknownSessionError):
            with manager.acquire("acme", "ghost"):
                pass

    def test_create_collision(self, tmp_path):
        manager = SessionManager(tmp_path)
        manager.create("acme", "s1")
        with pytest.raises(SessionExistsError):
            manager.create("acme", "s1")

    def test_create_collision_with_parked_checkpoint(self, tmp_path):
        manager = SessionManager(tmp_path)
        manager.create("acme", "s1")
        manager.evict("acme", "s1")
        with pytest.raises(SessionExistsError):
            manager.create("acme", "s1")


class TestInfo:
    def test_info_is_the_listing_row(self, tmp_path):
        manager = SessionManager(tmp_path)
        manager.create("acme", "s1")
        manager.create("acme", "s2")
        manager.evict("acme", "s2")
        fresh = SessionManager(tmp_path)  # s1 and s2 parked on disk only
        for view in (manager, fresh):
            for info in view.sessions("acme"):
                assert view.info("acme", info.session_id) == info
        with manager.acquire("acme", "s1"):
            assert manager.info("acme", "s1") == next(
                info for info in manager.sessions("acme")
                if info.session_id == "s1"
            )

    def test_info_on_an_unknown_session(self, tmp_path):
        manager = SessionManager(tmp_path)
        with pytest.raises(UnknownSessionError):
            manager.info("acme", "ghost")


class TestSessionCount:
    def test_count_is_the_listing_length(self, tmp_path, monkeypatch):
        from pathlib import Path

        manager = SessionManager(tmp_path, max_resident=2)
        tenant_dir = manager.tenant_dir("acme")

        def counted(view):
            count = view.session_count("acme")
            assert count == len(view.sessions("acme"))
            return count

        assert counted(manager) == 0
        for sid in ("s1", "s2", "s3"):
            manager.create("acme", sid)
        manager.create("beta", "s1")
        assert counted(manager) == 3
        manager.evict("acme", "s2")
        assert counted(manager) == 3
        manager.purge("acme", "s3")
        assert counted(manager) == 2
        manager.shutdown()

        # a restart: both sessions parked on disk, neither ever loaded
        fresh = SessionManager(tmp_path)
        assert counted(fresh) == 2
        fresh.create("acme", "s4")
        assert counted(fresh) == 3
        fresh.purge("acme", "s1")
        assert counted(fresh) == 2

        globbed = []
        glob = Path.glob

        def spy(path, pattern):
            if path == tenant_dir:
                globbed.append(pattern)
            return glob(path, pattern)

        monkeypatch.setattr(Path, "glob", spy)
        assert fresh.session_count("acme") == 2
        assert globbed == []

    def test_count_on_a_fresh_root(self, tmp_path):
        assert SessionManager(tmp_path).session_count("acme") == 0
