"""Record durability overheads to BENCH_durability.json and gate on them.

Crash safety must stay affordable, or nobody leaves it on.  Two numbers
are gated (the ``make crash-smoke`` contract):

* **WAL append overhead** — journalling one committed transaction
  (frame + checksum + write + fsync) must be a rounding error next to
  the analysis work it protects.  Gate: at most 5% of the incremental
  propagation baseline (the single-retract time recorded by
  ``benchmarks/record_incremental.py``, recomputed here so the gate is
  self-contained).
* **paper-world recovery** — reopening the paper's full sc1/sc2 sitting
  after a simulated crash (checkpoint + unsaved WAL tail) must stay
  interactive.  Gate: at most 50 ms.

Also recorded, ungated: the end-to-end slowdown of the paper sitting
with a WAL attached versus without, and the pure framing cost with
fsync off (what the checksummed format itself costs).

Run:  PYTHONPATH=src python benchmarks/record_durability.py
Exits non-zero when a gate fails.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import harness
from harness import Gates, schema_sizes, timed
from repro.kernel.wal import WriteAheadLog
from repro.tool.session import ToolSession
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
)

OUTPUT = harness.REPO_ROOT / "BENCH_durability.json"

WAL_COMMITS = 300
APPEND_OVERHEAD_CEILING = 0.05  # per-commit WAL cost vs. incremental retract
RECOVERY_CEILING_SECONDS = 0.050

#: A commit record the size of a real declare-equivalent transaction.
SAMPLE_EVENT = {
    "offset": 1,
    "txn": 1,
    "scope": "registry",
    "action": "declare_equivalent",
    "payload": {
        "first": "sc1.Student.Name",
        "second": "sc2.Grad_student.Name",
    },
    "objects": [["sc1", "Student"], ["sc2", "Grad_student"]],
}


def measure_wal_append(sync: bool) -> dict:
    """Mean seconds per committed transaction hitting the WAL."""
    with tempfile.TemporaryDirectory() as tmp:
        wal = WriteAheadLog(Path(tmp) / "wal", sync=sync)

        def commit_all() -> None:
            for index in range(WAL_COMMITS):
                wal.commit([dict(SAMPLE_EVENT, offset=index + 1)])

        elapsed, _ = timed(commit_all)
        wal.close()
    return {
        "commits": WAL_COMMITS,
        "fsync": sync,
        "total_seconds": round(elapsed, 6),
        "per_commit_seconds": round(elapsed / WAL_COMMITS, 9),
    }


def drive_paper_sitting(session: ToolSession) -> None:
    """The paper's sc1/sc2 DDA flow against an already-schema'd session."""
    session.select_pair("sc1", "sc2")
    for first, second in harness.PAPER_DECLARATIONS:
        session.registry.declare_equivalent(first, second)
    for first, second, code in PAPER_ASSERTION_CODES:
        session.analysis.specify(first, second, code)
    for first, second, code in PAPER_RELATIONSHIP_CODES:
        session.analysis.specify(first, second, code, relationships=True)
    session.integrate()


def measure_paper_sitting(durable: bool, root: Path) -> float:
    """Wall time of the full paper sitting, with or without a WAL."""
    if durable:
        session = ToolSession.open(root / "durable.json")
    else:
        session = ToolSession()
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    return timed(lambda: drive_paper_sitting(session))[0]


def measure_recovery(root: Path) -> dict:
    """Crash the paper sitting mid-way, time the reopen."""
    path = root / "recover.json"
    session = ToolSession.open(path)
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    session.select_pair("sc1", "sc2")
    for first, second in harness.PAPER_DECLARATIONS[:3]:
        session.registry.declare_equivalent(first, second)
    session.save(path)  # checkpoint mid-sitting
    for first, second in harness.PAPER_DECLARATIONS[3:]:
        session.registry.declare_equivalent(first, second)
    for first, second, code in PAPER_ASSERTION_CODES:
        session.analysis.specify(first, second, code)
    session.integrate()
    schemas = list(session.schemas.values())
    del session  # crash: the tail past the checkpoint lives only in the WAL

    elapsed, recovered = timed(lambda: ToolSession.open(path))
    report = recovered.last_recovery
    return {
        "schemas": schema_sizes(*schemas),
        "events_replayed": report.events_replayed,
        "source": report.source,
        "seconds": round(elapsed, 6),
    }


def main() -> int:
    synced = measure_wal_append(sync=True)
    framing_only = measure_wal_append(sync=False)
    baseline = harness.incremental_baseline()
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        plain_seconds = measure_paper_sitting(durable=False, root=root)
        durable_seconds = measure_paper_sitting(durable=True, root=root)
        recovery = measure_recovery(root)

    gates = Gates()
    gates.at_most(
        "wal_append_overhead",
        synced["per_commit_seconds"] / max(baseline["seconds"], 1e-12),
        APPEND_OVERHEAD_CEILING,
    )
    gates.at_most(
        "paper_recovery", recovery["seconds"], RECOVERY_CEILING_SECONDS
    )
    report = {
        "description": (
            "WAL + recovery overheads and smoke gates; "
            "see docs/DURABILITY.md and make crash-smoke"
        ),
        "wal_append": synced,
        "wal_framing_only": framing_only,
        "incremental_baseline": baseline,
        "paper_sitting": {
            "plain_seconds": round(plain_seconds, 6),
            "durable_seconds": round(durable_seconds, 6),
            "slowdown": round(durable_seconds / max(plain_seconds, 1e-12), 4),
        },
        "recovery": recovery,
    }
    return harness.write_record(OUTPUT, report, gates)


if __name__ == "__main__":
    raise SystemExit(main())
