"""Record the batch solver against the closure oracle to BENCH_solver.json.

Three instrumented comparisons, each with a hard gate (non-zero exit on
failure, so ``make solver-smoke`` can enforce them in CI):

* **fixpoint parity** — on conflict-free generated workloads (with
  categories, whose implicit containments are prepended to the truth
  facts so the closure has triangles to derive) the solver's derived
  assertions and narrowed feasible sets must equal the incremental
  network's, every world must derive at least one assertion, and the
  batch run (one kernel run seeded with every fact) takes no more
  propagation steps than the oracle's specify-at-a-time runs;
* **conflict detection** — on conflict-seeded workloads
  (``repro.workloads.conflict_seeded_config``) every planted
  contradiction must raise :class:`~repro.errors.ConsistencyFailure`
  with a conflict set that ``verify_conflict`` confirms is both
  sufficient and minimal, and the oracle must agree the input is
  inconsistent;
* **suggestion recall** — on conflict-free runs at least one planted
  true equivalence must rank in the suggestion top 3.

Run:  PYTHONPATH=src python benchmarks/record_solver.py
"""

from __future__ import annotations

import harness
from harness import Gates, timed
from repro.assertions.assertion import Assertion
from repro.assertions.kinds import AssertionKind
from repro.assertions.network import AssertionNetwork
from repro.baselines import closure_oracle, derived_keys, objects_of
from repro.equivalence.session import AnalysisSession
from repro.errors import ConsistencyFailure
from repro.obs.metrics import AnalysisCounters
from repro.solver import ConstraintSolver, verify_conflict
from repro.workloads.generator import (
    GeneratorConfig,
    conflict_seeded_config,
    generate_schema_pair,
)

OUTPUT = harness.REPO_ROOT / "BENCH_solver.json"

#: conflict-free parity worlds: (seed, concepts, overlap); generated with
#: categories so the implicit category facts give the closure triangles
PARITY_WORLDS = [(11, 10, 0.5), (23, 14, 0.7), (42, 18, 1.0)]
PARITY_CATEGORY_RATE = 0.5
#: conflict-seeded worlds: (seed, contradictions)
CONFLICT_WORLDS = [(0, 2), (1, 2), (2, 3), (3, 1)]
#: suggestion-recall seeds (conflict-free, dense equivalences)
SUGGESTION_SEEDS = [0, 1, 2, 3, 4]


def truth_facts(pair) -> list[Assertion]:
    return [
        Assertion(first, second, kind)
        for (first, second), kind in pair.truth.object_assertions.items()
    ]


def implicit_facts(pair) -> list[Assertion]:
    """Each schema's own category containments (no DDA input needed)."""
    network = AssertionNetwork()
    return network.seed_schema(pair.first) + network.seed_schema(pair.second)


def record_fixpoint_parity(gates: Gates) -> dict:
    runs = []
    for seed, concepts, overlap in PARITY_WORLDS:
        pair = generate_schema_pair(
            GeneratorConfig(
                seed=seed,
                concepts=concepts,
                overlap=overlap,
                category_rate=PARITY_CATEGORY_RATE,
            )
        )
        facts = implicit_facts(pair) + truth_facts(pair)
        counters = AnalysisCounters()
        solver_seconds, solution = timed(
            lambda: ConstraintSolver(facts, counters=counters).solve()
        )
        oracle_seconds, oracle = timed(
            lambda: closure_oracle(objects_of(facts), facts)
        )
        runs.append(
            {
                "world": f"seed={seed} concepts={concepts} overlap={overlap}",
                "facts": len(facts),
                "derived": len(solution.derived),
                "solver_steps": solution.steps,
                "oracle_steps": oracle.propagation_steps,
                "solver_seconds": round(solver_seconds, 6),
                "oracle_seconds": round(oracle_seconds, 6),
                "oracle_consistent": oracle.consistent,
                "derived_equal": derived_keys(
                    {a.pair: a for a in solution.derived}
                ) == derived_keys(oracle.derived),
                "feasible_equal": solution.feasible == oracle.feasible,
            }
        )
    for gate, key in (
        ("parity_oracle_consistent", "oracle_consistent"),
        ("parity_derived_sets", "derived_equal"),
        ("parity_feasible_tables", "feasible_equal"),
    ):
        gates.holds(gate, all(run[key] for run in runs))
    gates.holds(
        "parity_solver_steps_within_oracle",
        all(r["solver_steps"] <= r["oracle_steps"] for r in runs),
    )
    # equal empty sets would prove nothing: every world must derive
    gates.at_least("parity_min_derived", min(r["derived"] for r in runs), 1)
    return {"runs": runs}


def solve_and_verify(facts) -> tuple[bool, bool]:
    """(the solver refused the facts, its conflict set verified minimal)."""
    try:
        ConstraintSolver(facts).solve()
    except ConsistencyFailure as failure:
        return True, bool(verify_conflict(failure.conflict))
    return False, False


def record_conflict_detection(gates: Gates) -> dict:
    runs = []
    oracle_missed = 0
    for seed, contradictions in CONFLICT_WORLDS:
        pair = generate_schema_pair(
            conflict_seeded_config(seed, contradictions=contradictions)
        )
        base_facts = truth_facts(pair)
        caught = 0
        verified = 0
        minimize_seconds = 0.0
        # contradictions plant independent spoilers: check each in isolation
        for planted in pair.contradictions:
            facts = base_facts + [
                Assertion(first, second, kind)
                for first, second, kind in planted.extras
            ]
            seconds, (was_caught, was_verified) = timed(
                lambda: solve_and_verify(facts)
            )
            caught += was_caught
            verified += was_verified
            minimize_seconds += seconds
            oracle = closure_oracle(objects_of(facts), facts)
            oracle_missed += oracle.consistent
        runs.append(
            {
                "world": f"seed={seed} contradictions={contradictions}",
                "planted": contradictions,
                "caught": caught,
                "minimal_sets_verified": verified,
                "solve_and_minimize_seconds": round(minimize_seconds, 6),
            }
        )
    planted = sum(r["planted"] for r in runs)
    gates.equal("conflicts_caught", sum(r["caught"] for r in runs), planted)
    gates.equal(
        "minimal_sets_verified",
        sum(r["minimal_sets_verified"] for r in runs),
        planted,
    )
    gates.equal("oracle_missed_conflicts", oracle_missed, 0)
    return {"runs": runs}


def record_suggestion_recall(gates: Gates) -> dict:
    runs = []
    for seed in SUGGESTION_SEEDS:
        pair = generate_schema_pair(
            conflict_seeded_config(seed, contradictions=0)
        )
        session = AnalysisSession([pair.first, pair.second])
        seconds, suggestions = timed(
            lambda: session.suggest_assertions(
                pair.first.name, pair.second.name, limit=10
            )
        )
        true_equals = {
            (first, second)
            for (first, second), kind in pair.truth.object_assertions.items()
            if kind is AssertionKind.EQUALS
        }
        top3 = {(s.first, s.second) for s in suggestions[:3]}
        runs.append(
            {
                "seed": seed,
                "suggestions": len(suggestions),
                "true_equals_pairs": len(true_equals),
                "top3_hit": bool(top3 & true_equals),
                "seconds": round(seconds, 6),
            }
        )
    gates.equal(
        "suggestion_top3_hits",
        sum(r["top3_hit"] for r in runs),
        len(SUGGESTION_SEEDS),
    )
    return {"runs": runs}


def main() -> int:
    gates = Gates()
    report = {
        "description": (
            "Batch constraint solver vs. the incremental-closure oracle: "
            "fixpoint parity, conflict detection with verified-minimal "
            "sets, and suggestion top-3 recall; see docs/SOLVER.md"
        ),
        "fixpoint_parity": record_fixpoint_parity(gates),
        "conflict_detection": record_conflict_detection(gates),
        "suggestion_recall": record_suggestion_recall(gates),
    }
    return harness.write_record(OUTPUT, report, gates)


if __name__ == "__main__":
    raise SystemExit(main())
