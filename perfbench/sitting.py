"""The ``sitting`` workload: whole DDA sittings in process.

Each sitting runs on its own generated world of 114 object
classes (``generate_schema_pair``, seeded from the run seed and the
sitting's index) and drives :class:`AnalysisSession` the way the tool's
screens do:

1. declare every true attribute equivalence (the oracle's answers);
2. rank the candidate object pairs;
3. plant each contradiction triangle of the world (base, spoiler, then
   the contradicting assertion, which must be refused), then specify
   every pair the closure left undetermined, in ranked review order;
4. retract one specified assertion and specify it again, then integrate.

Every call of steps 1-4 is one DDA step, timed on its own.
"""

from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, field
from typing import Iterator

from repro.assertions.kinds import Source
from repro.baselines.evolution_baselines import rebuild_matches
from repro.equivalence.session import AnalysisSession
from repro.errors import ConflictError, SchemaError
from repro.workloads.generator import GeneratorConfig, generate_schema_pair

from measure import own_peak_rss_mb, quantile

#: world shape: 114 object classes and about 1,000 DDA calls per sitting.
#: Every concept gets a category, so every world has the same class
#: count and one run's sittings are comparable.
CONCEPTS = 34
OVERLAP = 0.6
CATEGORY_RATE = 1.0
CONTRADICTIONS = 2
#: sittings a traced run makes (fixed, so its counts repeat exactly)
TRACED_SITTINGS = 2
#: fewest sittings an untraced run makes, however long each takes
MIN_SITTINGS = 3


@dataclass
class Sitting:
    """What one sitting did and how long it took."""

    world_seed: int
    classes: int = 0
    setup_s: float = 0.0
    sitting_s: float = 0.0
    steps: list[float] = field(default_factory=list)
    planted: int = 0
    refused: int = 0
    unexpected_refusals: int = 0
    derived: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    oracle_ok: bool = False
    #: perf_counter interval of steps 1-4
    window: tuple[float, float] = (0.0, 0.0)


def world_config(world_seed: int) -> GeneratorConfig:
    return GeneratorConfig(
        seed=world_seed,
        concepts=CONCEPTS,
        overlap=OVERLAP,
        category_rate=CATEGORY_RATE,
        contradictions=CONTRADICTIONS,
    )


def world_seeds(seed: int) -> Iterator[int]:
    """The run's world seeds, skipping worlds too small to plant in.

    A world needs ``CONTRADICTIONS`` shared *equals* concepts; about one
    seed in 2,000 draws fewer.
    """
    for index in itertools.count():
        world_seed = seed * 1000 + index
        try:
            generate_schema_pair(world_config(world_seed))
        except SchemaError:
            continue
        yield world_seed


def run_sitting(world_seed: int) -> Sitting:
    """One whole sitting; the oracle check runs after the clock stops."""
    record = Sitting(world_seed)
    started = time.perf_counter()
    pair = generate_schema_pair(world_config(world_seed))
    session = AnalysisSession([pair.first, pair.second])
    record.setup_s = time.perf_counter() - started
    record.classes = len(pair.first) + len(pair.second)
    first, second = pair.first.name, pair.second.name
    steps = record.steps
    clock = time.perf_counter

    def step(call, *args, **kwargs):
        began = clock()
        try:
            return call(*args, **kwargs)
        finally:
            steps.append(clock() - began)

    session.reset_counters()  # count the sitting's work, not set-up's
    started = clock()
    for left, right in sorted(pair.truth.attribute_pairs):
        step(session.declare_equivalent, left, right)
    candidates = step(
        session.candidate_pairs, first, second, include_zero=True
    )
    for planted in pair.contradictions:
        record.planted += 1
        base, *extras = planted.all_facts
        for fact in (base, *extras[:-1]):
            step(session.specify, *fact)
        try:
            step(session.specify, *extras[-1])
        except ConflictError:
            record.refused += 1
    network = session.object_network
    truth = pair.truth
    for candidate in candidates:
        if not network.is_undetermined(candidate.first, candidate.second):
            continue
        kind = truth.assertion_between(candidate.first, candidate.second)
        try:
            step(session.specify, candidate.first, candidate.second, kind)
        except ConflictError:
            record.unexpected_refusals += 1
    answered = [
        assertion for assertion in network.specified_assertions()
        if assertion.source is Source.DDA
    ]
    target = answered[len(answered) // 2]
    step(session.retract, target.first, target.second)
    step(session.specify, target.first, target.second, target.kind)
    step(session.integrate, first, second)
    ended = clock()
    record.sitting_s = ended - started
    record.window = (started, ended)

    record.derived = len(network.derived_assertions())
    record.counters = session.counters_snapshot()
    live, rebuilt = rebuild_matches(session)
    record.oracle_ok = live == rebuilt
    return record


def sitting_failures(record: Sitting) -> int:
    """Failed outcomes: unexpected refusals, accepted plants, oracle misses."""
    return (
        record.unexpected_refusals
        + (record.planted - record.refused)
        + (0 if record.oracle_ok else 1)
    )


def run(seed: int, seconds: float, trace: bool) -> dict:
    """Run the workload; returns the result pieces :mod:`run` prints."""
    worlds = world_seeds(seed)
    if trace:
        return _run_traced(worlds)
    sittings: list[Sitting] = []
    measured = 0.0  # the oracle checks between sittings do not count
    while len(sittings) < MIN_SITTINGS or measured < seconds:
        sittings.append(run_sitting(next(worlds)))
        measured += sittings[-1].sitting_s
    attempted = sum(len(record.steps) for record in sittings)
    failed = sum(sitting_failures(record) for record in sittings)

    def median_ms(q: float) -> float:
        return 1e3 * statistics.median(quantile(r.steps, q) for r in sittings)

    # medians over sittings: a noise burst on the shared machine moves
    # one sitting's figures, not the run's
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in sittings), "s"),
        "latency_p50_ms": (median_ms(0.50), "ms"),
        "latency_p99_ms": (median_ms(0.99), "ms"),
        "throughput_ops": (
            statistics.median(len(r.steps) / r.sitting_s for r in sittings), "1/s"
        ),
        "peak_rss_mb": (own_peak_rss_mb(), "MB"),
    }
    report = {
        "sittings": len(sittings),
        "classes": [record.classes for record in sittings],
        "sitting_s": statistics.median(r.sitting_s for r in sittings),
        "step_p50_ms": metrics["latency_p50_ms"][0],
        "step_p99_ms": metrics["latency_p99_ms"][0],
        "steps": attempted,
        "planted": sum(record.planted for record in sittings),
        "refused": sum(record.refused for record in sittings),
        "error_rate": failed / attempted,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": report,
    }


def _run_traced(worlds) -> dict:
    from repro.obs.trace import tracing

    import layers

    chosen = [next(worlds) for _ in range(TRACED_SITTINGS)]
    baseline = run_sitting(chosen[0])
    layers.install_library()
    sittings = []
    with tracing() as tracer:
        for world_seed in chosen:
            sittings.append(run_sitting(world_seed))
    counters: dict[str, int] = {}
    for record in sittings:
        for name, value in record.counters.items():
            counters[name] = counters.get(name, 0) + value
    attempted = sum(len(record.steps) for record in sittings)
    failed = sum(sitting_failures(record) for record in sittings)
    if baseline.counters != sittings[0].counters:
        failed += 1  # tracing changed the work done, or it is not repeatable
    # set-up and the oracle's rebuild run outside the sittings' windows
    spans = [
        span for span in tracer.spans
        if any(
            record.window[0] <= span.start and span.end <= record.window[1]
            for record in sittings
        )
    ]
    traced_s = sum(record.sitting_s for record in sittings)
    metrics = layers.summarize(
        spans,
        counters=counters,
        e2e_s=traced_s,
        operations=attempted,
        derived=sum(record.derived for record in sittings),
        conflicts=sum(r.refused + r.unexpected_refusals for r in sittings),
        overhead_pct=100 * (sittings[0].sitting_s - baseline.sitting_s)
        / baseline.sitting_s,
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "report": {
            "sittings": len(sittings),
            "untraced_sitting_s": baseline.sitting_s,
            "traced_sitting_s": sittings[0].sitting_s,
            "planted": sum(record.planted for record in sittings),
        },
    }

