"""Record kernel overheads to BENCH_kernel.json and gate on them.

Two numbers matter for the event-sourced kernel to stay free in
practice:

* **per-event bus overhead** — the cost of appending one event and
  notifying subscribers must be a rounding error next to the real work
  it accompanies.  Gate: at most 5% of the incremental-propagation
  baseline (the single-retract time recorded by
  ``benchmarks/record_incremental.py``, recomputed here so the gate is
  self-contained).
* **snapshot restore** — restoring the paper's full sc1/sc2 world
  (declarations, assertions, integration) from its exported kernel
  state, by baseline + replay of the log, must stay interactive.  Gate:
  at most 50 ms.

Run:  PYTHONPATH=src python benchmarks/record_kernel.py
Exits non-zero when a gate fails (the ``make kernel-smoke`` contract).
"""

from __future__ import annotations

import harness
from harness import Gates, timed
from repro.equivalence.session import AnalysisSession
from repro.kernel import EventBus, Kernel
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
)

OUTPUT = harness.REPO_ROOT / "BENCH_kernel.json"

BUS_EVENTS = 20_000
OVERHEAD_CEILING = 0.05  # per-event publish vs. incremental retract
RESTORE_CEILING_SECONDS = 0.050


def measure_bus_overhead() -> dict:
    """Mean seconds per publish, with view + audit-style subscribers on."""
    bus = EventBus()
    invalidations = []
    bus.subscribe(lambda event: invalidations.append(event.offset))
    bus.subscribe(lambda event: None, live_only=True)  # the audit tap shape
    payload = {"first": "sc1.Student.Name", "second": "sc2.Grad_student.Name"}

    def publish_all() -> None:
        for _ in range(BUS_EVENTS):
            bus.publish("registry", "declare_equivalent", payload)

    elapsed, _ = timed(publish_all)
    return {
        "events": BUS_EVENTS,
        "total_seconds": round(elapsed, 6),
        "per_event_seconds": round(elapsed / BUS_EVENTS, 9),
        "subscribers": 2,
    }


def build_paper_world() -> AnalysisSession:
    """The paper's sc1/sc2 sitting, driven end to end through the kernel."""
    session = AnalysisSession([build_sc1(), build_sc2()])
    for first, second in harness.PAPER_DECLARATIONS:
        session.declare_equivalent(first, second)
    for first, second, code in PAPER_ASSERTION_CODES:
        session.specify(first, second, code)
    for first, second, code in PAPER_RELATIONSHIP_CODES:
        session.specify(first, second, code, relationships=True)
    session.integrate("sc1", "sc2")
    return session


def measure_snapshot_restore() -> dict:
    """Export the paper world, then time restore + checkout of its head."""
    session = build_paper_world()
    state = session.kernel.export_state()

    def restore() -> AnalysisSession:
        kernel = Kernel.restore(state)
        restored = AnalysisSession(kernel=kernel)  # the kernel holds it weakly
        kernel.checkout(state["head"])
        return restored

    elapsed, _ = timed(restore)
    return {
        "events": len(state["events"]),
        "snapshots": len(state["snapshots"]),
        "seconds": round(elapsed, 6),
    }


def main() -> int:
    bus = measure_bus_overhead()
    baseline = harness.incremental_baseline()
    restore = measure_snapshot_restore()

    gates = Gates()
    gates.at_most(
        "bus_overhead",
        bus["per_event_seconds"] / max(baseline["seconds"], 1e-12),
        OVERHEAD_CEILING,
    )
    gates.at_most(
        "snapshot_restore", restore["seconds"], RESTORE_CEILING_SECONDS
    )
    report = {
        "description": (
            "Event-sourced kernel overheads and smoke gates; "
            "see docs/ARCHITECTURE.md and make kernel-smoke"
        ),
        "bus_publish": bus,
        "incremental_baseline": baseline,
        "snapshot_restore": restore,
    }
    return harness.write_record(OUTPUT, report, gates)


if __name__ == "__main__":
    raise SystemExit(main())
