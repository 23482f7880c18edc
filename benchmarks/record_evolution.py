"""Record incremental evolution repair costs to BENCH_evolution.json.

One typed attribute edit lands on a single component of an
eight-component federation with live, cached query plans.  Three hard
gates (non-zero exit on failure, so ``make evolution-smoke`` can enforce
them in CI):

* **OCS locality** — re-warming every memoized candidate-pair matrix
  after the edit recomputes at most 10% of the cells a from-scratch
  session recomputes (the edit touched one class of one component, so
  only that row of that component's pair matrices may go cold);
* **propagation locality** — the repair (closure and solver steps
  alike) does at most 10% of the propagation steps a full rebuild pays
  to re-derive the assertion closure;
* **plan precision** — exactly the cached plans with a leg on the
  edited class are invalidated; plans over other classes survive and
  the planner reports the count in ``last_evolve_invalidated``.

A separate section integrates the paper's sc1/sc2 sitting through a
:class:`~repro.tool.session.ToolSession` and applies one attribute edit
to sc1, which re-integrates the pair inside ``apply_edit``.  Two more
gates: the re-integrated schema fingerprints like a cold
:class:`~repro.integration.integrator.Integrator` run over the rebuilt
state (**reintegration_matches_cold**), and an attribute edit moves no
cluster (**reintegration_clusters_changed** == 0).

A third section, **edit_cost**, records what one edit costs on a
finished review: the median seconds of :data:`EDIT_COST_REPEATS`
``AddAttribute`` edits on perfbench's sitting world (seed 1000, 34
concepts) after every true equivalence is declared and every
undetermined candidate pair answered.  It has no gate.

The from-scratch baseline is the rebuild oracle
(:func:`repro.baselines.rebuild_session`): a cold session re-driven
through the same observable facts, whose fingerprint the incremental
session must also match bitwise.

Run:  PYTHONPATH=src python benchmarks/record_evolution.py
"""

from __future__ import annotations

import itertools
import statistics

import harness
from harness import Gates, component_mapping, component_schema, timed
from repro.assertions.kinds import AssertionKind
from repro.baselines import (
    rebuild_matches,
    rebuild_session,
    reintegrate_from_scratch,
)
from repro.data.populate import populate_store
from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.equivalence.session import AnalysisSession
from repro.evolution import AddAttribute
from repro.federation import FederationEngine
from repro.kernel.apply import schema_fingerprint
from repro.obs.trace import tracing
from repro.tool.session import ToolSession
from repro.workloads.generator import GeneratorConfig, generate_schema_pair
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_expected_figure5,
    build_sc1,
    build_sc2,
)

OUTPUT = harness.REPO_ROOT / "BENCH_evolution.json"

COMPONENTS = 8
EDITED_COMPONENT = "comp3"
#: repair may cost at most this fraction of the from-scratch baseline
LOCALITY_BUDGET = 0.10
#: the edit-cost world: perfbench's sitting shape
EDIT_COST_WORLD = GeneratorConfig(
    seed=1000, concepts=34, overlap=0.6, category_rate=1.0
)
#: timed edits; the record keeps their median
EDIT_COST_REPEATS = 9


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


def reintegration(gates: Gates) -> dict:
    """Integrate the paper sitting, then re-integrate through one edit."""
    session = ToolSession()
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    for first, second in harness.PAPER_DECLARATIONS:
        session.analysis.declare_equivalent(first, second)
    for first, second, code in PAPER_ASSERTION_CODES:
        session.analysis.specify(first, second, code)
    for first, second, code in PAPER_RELATIONSHIP_CODES:
        session.analysis.specify(first, second, code, relationships=True)
    session.select_pair("sc1", "sc2")
    integrate_seconds, _ = timed(session.integrate)
    with tracing() as tracer:
        edit_seconds, outcome = timed(
            lambda: session.apply_edit(
                "sc1",
                AddAttribute(
                    "Department",
                    Attribute("Budget", Domain(DomainKind.INTEGER)),
                ),
            )
        )
    live = schema_fingerprint(session.result.schema)
    cold = reintegrate_from_scratch(session.analysis, "sc1", "sc2")
    gates.holds("reintegration_matches_cold", live == cold)
    gates.equal(
        "reintegration_clusters_changed", outcome.scope.clusters_changed, 0
    )
    return {
        "world": "paper sc1/sc2 sitting, integrated; AddAttribute on "
        "sc1.Department",
        "scope": outcome.scope.to_wire(),
        "integrate_seconds": round(integrate_seconds, 6),
        "edit_seconds": round(edit_seconds, 6),
        "reintegration_seconds": round(
            tracer.total_time("evolution.repair.integration"), 6
        ),
        "fingerprint": live,
    }


def edit_cost() -> dict:
    """The median cost of one attribute edit on a finished review."""
    pair = generate_schema_pair(EDIT_COST_WORLD)
    first, second = pair.first.name, pair.second.name
    session = AnalysisSession([pair.first, pair.second])
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    network = session.object_network
    for candidate in session.candidate_pairs(first, second, include_zero=True):
        if network.is_undetermined(candidate.first, candidate.second):
            session.specify(
                candidate.first,
                candidate.second,
                pair.truth.assertion_between(candidate.first, candidate.second),
            )
    owner = pair.first.object_classes()[0].name
    serial = itertools.count()

    def edit():
        attribute = Attribute(
            f"Cost_probe_{next(serial)}", Domain(DomainKind.INTEGER)
        )
        return session.apply_edit(first, AddAttribute(owner, attribute))

    events = session.kernel.bus.offset
    seconds, _ = timed(
        edit, repeats=EDIT_COST_REPEATS, reduce=statistics.median
    )
    return {
        "world": f"seed={EDIT_COST_WORLD.seed} "
        f"concepts={EDIT_COST_WORLD.concepts}, review finished; "
        f"AddAttribute on {first}.{owner}",
        "classes": len(pair.first) + len(pair.second),
        "events": events,
        "edits": EDIT_COST_REPEATS,
        "median_seconds": round(seconds, 6),
    }


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
    reintegrated = reintegration(gates)

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
        "reintegration": reintegrated,
        "edit_cost": edit_cost(),
    }
    return harness.write_record(OUTPUT, report, gates)


if __name__ == "__main__":
    raise SystemExit(main())
