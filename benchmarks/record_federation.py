"""Record federated-engine performance to BENCH_federation.json.

Models a federation of N sc1-shaped component databases (each behind a
simulated network latency) all mapped onto the Figure 5 integrated
schema, and measures:

* **scaling** — wall time of one global request answered sequentially
  (the oracle's execution order) vs concurrently, at 1/2/4/8 components;
* **plan cache** — hit ratio over repeated requests;
* **partial results** — latency and health of a query with one component
  down, verifying fault injection never leaks an exception.

The script *gates*: it exits non-zero if the concurrent fan-out is not
at least 2x faster than the sequential baseline on 8 components, or if
the fault-injection run raises.  ``make fed-smoke`` runs it in CI.

Run:  PYTHONPATH=src python benchmarks/record_federation.py
"""

from __future__ import annotations

import statistics

import harness
from harness import Gates, component_mapping, component_schema, timed
from repro.assertions.kinds import AssertionKind
from repro.assertions.network import AssertionNetwork
from repro.data.populate import populate_store
from repro.ecr.schema import ObjectRef
from repro.federation import (
    ExecutionPolicy,
    FederationEngine,
    FlakyBackend,
    InstanceBackend,
)
from repro.obs.metrics import MetricsRegistry
from repro.workloads.university import build_expected_figure5

OUTPUT = harness.REPO_ROOT / "BENCH_federation.json"

COMPONENT_COUNTS = [1, 2, 4, 8]
#: simulated per-call network/processing latency of a remote component
LATENCY_S = 0.02
REQUEST = "select D_Name, D_GPA from Student"
REPEATS = 5


def build_federation(count: int):
    """mappings, stores, and a pairwise-equals network for N components."""
    integrated = build_expected_figure5()
    names = [f"comp{index}" for index in range(count)]
    mappings = {
        name: component_mapping(name, integrated.name) for name in names
    }
    stores = {
        name: populate_store(
            component_schema(name),
            seed=index + 1,
            entities_per_class=25,
            links_per_relationship=25,
        )
        for index, name in enumerate(names)
    }
    network = AssertionNetwork()
    for name in names:
        network.add_object(ObjectRef(name, "Student"))
        network.add_object(ObjectRef(name, "Department"))
    for index, first in enumerate(names):
        for second in names[index + 1:]:
            for cls in ("Student", "Department"):
                network.specify(
                    ObjectRef(first, cls),
                    ObjectRef(second, cls),
                    AssertionKind.EQUALS.code,
                )
    return integrated, mappings, stores, network


def flaky_backends(stores, latency: float = LATENCY_S):
    return {
        name: FlakyBackend(InstanceBackend(store), latency=latency, seed=index)
        for index, (name, store) in enumerate(sorted(stores.items()))
    }


def query_seconds(engine: FederationEngine) -> float:
    """Median wall time of one query (plan pre-warmed)."""
    engine.query(REQUEST)  # warm the plan cache and the thread pool path
    seconds, _ = timed(
        lambda: engine.query(REQUEST),
        repeats=REPEATS,
        reduce=statistics.median,
    )
    return seconds


def measure_scaling() -> list[dict]:
    rows = []
    for count in COMPONENT_COUNTS:
        integrated, mappings, stores, network = build_federation(count)
        sequential = FederationEngine.for_backends(
            mappings,
            flaky_backends(stores),
            integrated,
            object_network=network,
            policy=ExecutionPolicy(sequential=True),
        )
        concurrent = FederationEngine.for_backends(
            mappings,
            flaky_backends(stores),
            integrated,
            object_network=network,
        )
        seq_s = query_seconds(sequential)
        conc_s = query_seconds(concurrent)
        result = concurrent.query(REQUEST)
        rows.append(
            {
                "components": count,
                "sequential_s": round(seq_s, 6),
                "concurrent_s": round(conc_s, 6),
                "speedup": round(seq_s / conc_s, 3),
                "strategy": str(result.plan.strategy),
                "rows": len(result.rows),
                "healthy": result.ok,
            }
        )
        print(
            f"  {count} component(s): sequential {seq_s * 1e3:.1f} ms, "
            f"concurrent {conc_s * 1e3:.1f} ms "
            f"({rows[-1]['speedup']:.2f}x)"
        )
    return rows


def measure_plan_cache(queries: int = 20) -> dict:
    integrated, mappings, stores, network = build_federation(4)
    metrics = MetricsRegistry()
    engine = FederationEngine.for_stores(
        mappings, stores, integrated, object_network=network, metrics=metrics
    )
    for _ in range(queries):
        engine.query(REQUEST)
    hits = metrics.counter("federation.plan.hit").value
    misses = metrics.counter("federation.plan.miss").value
    return {
        "queries": queries,
        "hits": hits,
        "misses": misses,
        "hit_ratio": round(hits / (hits + misses), 4),
    }


def measure_partial_results() -> dict:
    """One dead component out of 8: answers still arrive, nothing leaks."""
    integrated, mappings, stores, network = build_federation(8)
    backends = flaky_backends(stores)
    backends["comp7"] = FlakyBackend(
        InstanceBackend(stores["comp7"]),
        latency=LATENCY_S,
        down=True,
    )
    engine = FederationEngine.for_backends(
        mappings,
        backends,
        integrated,
        object_network=network,
        policy=ExecutionPolicy(retries=1, backoff=0.005),
    )
    elapsed, result = timed(lambda: engine.query(REQUEST))
    return {
        "components": 8,
        "down": 1,
        "latency_s": round(elapsed, 6),
        "degraded": result.degraded,
        "rows": len(result.rows),
        "health": result.health.summary(),
    }


def main() -> int:
    print("scaling (sequential vs concurrent fan-out):")
    scaling = measure_scaling()
    plan_cache = measure_plan_cache()
    print(f"plan cache hit ratio {plan_cache['hit_ratio']:.2%}")
    try:
        partial = measure_partial_results()
    except Exception as exc:  # noqa: BLE001 - the gate reports, then fails
        partial = {"error": f"{type(exc).__name__}: {exc}"}
    print(f"partial results under faults: {partial}")

    eight = next(row for row in scaling if row["components"] == 8)
    gates = Gates()
    gates.at_least("speedup_8_components_ge_2", eight["speedup"], 2.0)
    gates.holds(
        "fault_injection_clean",
        partial.get("degraded") is True and partial.get("rows", 0) > 0,
    )
    payload = {
        "request": REQUEST,
        "latency_model_s": LATENCY_S,
        "repeats": REPEATS,
        "scaling": scaling,
        "plan_cache": plan_cache,
        "partial_results": partial,
    }
    return harness.write_record(OUTPUT, payload, gates)


if __name__ == "__main__":
    raise SystemExit(main())
