"""Record the incremental engine's counters to BENCH_incremental.json.

Replays the two instrumented workloads — the EXP-CLO retract comparison
(``bench_exp_closure.py``) and the Screen 6/7 equivalence session
(``bench_screens_equivalence.py``) — through the incremental engine and
writes every :class:`~repro.obs.metrics.AnalysisCounters` snapshot,
plus the incremental-vs-full-rebuild ratios, to ``BENCH_incremental.json``
at the repository root.  It records; it has no gates.

Run:  PYTHONPATH=src python benchmarks/record_incremental.py
"""

from __future__ import annotations

import harness
from harness import Gates, schema_sizes, timed
from repro.assertions.network import AssertionNetwork
from repro.equivalence.registry import EquivalenceRegistry
from repro.equivalence.session import AnalysisSession
from repro.tool.app import run_script
from repro.tool.session import ToolSession
from repro.workloads.generator import generate_schema_pair
from repro.workloads.oracle import OracleDda
from repro.workloads.university import build_sc1, build_sc2

OUTPUT = harness.REPO_ROOT / "BENCH_incremental.json"

SCREENS_SCRIPT = [
    "2", "sc1 sc2",
    "Student Grad_student", "A Name Name", "A GPA GPA", "E",
    "Student Faculty", "A Name Name", "E",
    "Department Department", "A Name Name", "E",
    "E",
    "E",
]


def record_closure_retract() -> dict:
    """The EXP-CLO single-retract comparison, incremental vs. rebuild."""
    pair, incremental, target = harness.exp_clo_closure()
    baseline = AssertionNetwork(incremental=False)
    for ref in incremental.objects():
        baseline.add_object(ref)
    for assertion in incremental.specified_assertions():
        baseline.specify(
            assertion.first, assertion.second, assertion.kind,
            assertion.source, assertion.note,
        )
    incremental.counters.reset()
    baseline.counters.reset()
    incremental_seconds, _ = timed(
        lambda: incremental.retract(target.first, target.second)
    )
    baseline_seconds, _ = timed(
        lambda: baseline.retract(target.first, target.second)
    )
    steps_ratio = incremental.counters.propagation_steps / max(
        1, baseline.counters.propagation_steps
    )
    return {
        "workload": "bench_exp_closure (concepts=16, one retract)",
        "schemas": schema_sizes(pair.first, pair.second),
        "incremental": incremental.counters.snapshot(),
        "full_rebuild": baseline.counters.snapshot(),
        "propagation_steps_ratio": round(steps_ratio, 4),
        "incremental_seconds": round(incremental_seconds, 6),
        "full_rebuild_seconds": round(baseline_seconds, 6),
    }


def record_ocs_edit() -> dict:
    """One Screen 7 edit against a warmed OCS view vs. a cold rebuild."""
    pair = generate_schema_pair(harness.EXP_CLO)
    registry = EquivalenceRegistry([pair.first, pair.second])
    OracleDda(pair.truth).declare_all_equivalences(registry)
    ocs = registry.ocs(pair.first.name, pair.second.name)
    ocs.as_counts()
    edited = sorted(pair.truth.attribute_pairs)[0][0]
    registry.remove_from_class(edited)
    registry.counters.reset()
    ocs.as_counts()
    total_cells = len(ocs.rows) * len(ocs.columns)
    return {
        "workload": "bench_exp_closure registry (one equivalence edit)",
        "schemas": schema_sizes(pair.first, pair.second),
        "incremental": registry.counters.snapshot(),
        "full_rebuild_cells": total_cells,
        "ocs_cells_ratio": round(
            registry.counters.ocs_cells_recomputed / max(1, total_cells), 4
        ),
    }


def record_screens_session() -> dict:
    """The Screen 6/7 script of bench_screens_equivalence, with counters."""
    session = ToolSession()
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    session.analysis.reset_counters()
    run_script(SCREENS_SCRIPT, session)
    return {
        "workload": "bench_screens_equivalence (Screens 6-7 script)",
        "schemas": schema_sizes(*session.analysis.schemas()),
        "counters": session.analysis.counters_snapshot(),
    }


def record_facade_flow() -> dict:
    """The paper's sc1/sc2 flow via AnalysisSession, end to end."""
    session = AnalysisSession([build_sc1(), build_sc2()])
    for first, second in harness.PAPER_DECLARATIONS:
        session.declare_equivalent(first, second)
    session.candidate_pairs("sc1", "sc2")
    session.candidate_pairs("sc1", "sc2")  # second read: served from cache
    session.specify("sc1.Department", "sc2.Department", 1)
    session.specify("sc1.Student", "sc2.Grad_student", 3)
    session.specify("sc1.Student", "sc2.Faculty", 4)
    session.retract("sc1.Student", "sc2.Faculty")
    return {
        "workload": "AnalysisSession paper flow (sc1/sc2)",
        "schemas": schema_sizes(*session.schemas()),
        "counters": session.counters_snapshot(),
    }


def main() -> int:
    report = {
        "description": (
            "Instrumentation counters for the incremental analysis engine; "
            "see docs/API.md and benchmarks/bench_exp_closure.py"
        ),
        "closure_retract": record_closure_retract(),
        "ocs_edit": record_ocs_edit(),
        "screens_session": record_screens_session(),
        "facade_flow": record_facade_flow(),
    }
    return harness.write_record(OUTPUT, report, Gates())


if __name__ == "__main__":
    raise SystemExit(main())
