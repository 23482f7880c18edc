"""Record incremental evolution repair costs to BENCH_evolution.json.

One typed attribute edit lands on a single component of an
eight-component federation with live, cached query plans.  Three hard
gates (non-zero exit on failure, so ``make evolution-smoke`` can enforce
them in CI):

* **OCS locality** — re-warming every memoized candidate-pair matrix
  after the edit recomputes at most 10% of the cells a from-scratch
  session recomputes (the edit touched one class of one component, so
  only that row of that component's pair matrices may go cold);
* **propagation locality** — the scoped solver re-propagation does at
  most 10% of the propagation steps a full rebuild pays to re-derive
  the assertion closure;
* **plan precision** — exactly the cached plans with a leg on the
  edited class are invalidated; plans over other classes survive and
  the planner reports the count in ``last_evolve_invalidated``.

The from-scratch baseline is the rebuild oracle
(:func:`repro.baselines.rebuild_session`): a cold session re-driven
through the same observable facts, whose fingerprint the incremental
session must also match bitwise.

Run:  PYTHONPATH=src python benchmarks/record_evolution.py
"""

from __future__ import annotations

import harness
from harness import Gates, component_mapping, component_schema, timed
from repro.assertions.kinds import AssertionKind
from repro.baselines import rebuild_matches, rebuild_session
from repro.data.populate import populate_store
from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.equivalence.session import AnalysisSession
from repro.evolution import AddAttribute
from repro.federation import FederationEngine
from repro.workloads.university import build_expected_figure5

OUTPUT = harness.REPO_ROOT / "BENCH_evolution.json"

COMPONENTS = 8
EDITED_COMPONENT = "comp3"
#: repair may cost at most this fraction of the from-scratch baseline
LOCALITY_BUDGET = 0.10


def build_world():
    """An 8-component session, its federation engine, and warm plans."""
    names = [f"comp{index}" for index in range(COMPONENTS)]
    session = AnalysisSession(
        [component_schema(name, course=True) for name in names]
    )
    anchor = names[0]
    for other in names[1:]:
        session.declare_equivalent(
            f"{anchor}.Student.Name", f"{other}.Student.Name"
        )
        session.declare_equivalent(
            f"{anchor}.Department.Name", f"{other}.Department.Name"
        )
        session.specify(
            f"{anchor}.Student", f"{other}.Student", AssertionKind.EQUALS
        )
        session.specify(
            f"{anchor}.Department",
            f"{other}.Department",
            AssertionKind.EQUALS,
        )
    integrated = build_expected_figure5()
    stores = {
        name: populate_store(
            component_schema(name, course=True),
            seed=index + 1,
            entities_per_class=10,
            links_per_relationship=10,
        )
        for index, name in enumerate(names)
    }
    engine = FederationEngine.for_stores(
        {name: component_mapping(name, integrated.name) for name in names},
        stores,
        integrated,
        object_network=session.object_network,
        registry=session.registry,
    )
    return session, engine, names


def warm_candidate_pairs(session: AnalysisSession, names: list[str]) -> None:
    """Force every pairwise OCS matrix (the memoized Screen 8 state)."""
    for index, first in enumerate(names):
        for second in names[index + 1:]:
            session.candidate_pairs(first, second)


def main() -> int:
    session, engine, names = build_world()
    planner = engine.planner

    engine.query("select D_Name from Student")
    engine.query("select D_Name from E_Department")
    plans_before = planner.cache_size()

    warm_candidate_pairs(session, names)
    before = session.counters.snapshot()
    repair_seconds, outcome = timed(
        lambda: session.apply_edit(
            EDITED_COMPONENT,
            AddAttribute(
                "Student", Attribute("Audit_note", Domain(DomainKind.CHAR))
            ),
        )
    )
    warm_candidate_pairs(session, names)
    after = session.counters.snapshot()

    repair_cells = (
        after["ocs_cells_recomputed"] - before["ocs_cells_recomputed"]
    )
    repair_steps = (
        after["propagation_steps"]
        - before["propagation_steps"]
        + after["solver_propagation_steps"]
        - before["solver_propagation_steps"]
    )

    def rebuild():
        rebuilt = rebuild_session(session)
        warm_candidate_pairs(rebuilt, names)
        return rebuilt

    rebuild_seconds, rebuilt = timed(rebuild)
    full = rebuilt.counters.snapshot()
    full_cells = full["ocs_cells_recomputed"]
    full_steps = (
        full["propagation_steps"] + full["solver_propagation_steps"]
    )
    ratios = {
        "ocs_cells": round(repair_cells / max(full_cells, 1), 4),
        "propagation_steps": round(repair_steps / max(full_steps, 1), 4),
        "budget": LOCALITY_BUDGET,
    }

    gates = Gates()
    gates.at_most(
        "ocs_locality", repair_cells / max(full_cells, 1), LOCALITY_BUDGET
    )
    gates.at_most(
        "propagation_locality",
        repair_steps / max(full_steps, 1),
        LOCALITY_BUDGET,
    )
    # exactly the Student plan is dropped; the E_Department plan survives
    gates.equal("plans_invalidated", planner.last_evolve_invalidated, 1)
    gates.equal("plans_dropped", plans_before - planner.cache_size(), 1)
    incremental, from_scratch = rebuild_matches(session)
    gates.holds("rebuild_oracle_matches", incremental == from_scratch)

    report = {
        "description": (
            "One typed attribute edit on an 8-component federation with "
            "live plans: repair locality vs. the from-scratch rebuild "
            "oracle and per-class plan invalidation; see docs/EVOLUTION.md"
        ),
        "world": {
            "components": COMPONENTS,
            "edited": f"{EDITED_COMPONENT}.Student",
            "edit": outcome.edit.to_payload(),
            "plans_cached": plans_before,
        },
        "repair": {
            "scope": outcome.scope.to_wire(),
            "ocs_cells_recomputed": repair_cells,
            "propagation_steps": repair_steps,
            "seconds": round(repair_seconds, 6),
            "plans_invalidated": planner.last_evolve_invalidated,
        },
        "full_rebuild": {
            "ocs_cells_recomputed": full_cells,
            "propagation_steps": full_steps,
            "seconds": round(rebuild_seconds, 6),
        },
        "ratios": ratios,
    }
    return harness.write_record(OUTPUT, report, gates)


if __name__ == "__main__":
    raise SystemExit(main())
