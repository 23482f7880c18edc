"""Incremental repair is pinned to the from-scratch rebuild oracle.

The acceptance property of the evolution subsystem: after *any* random
DDA sitting — equivalences, assertions, retractions, integrations and
typed schema edits interleaved — the incrementally repaired session's
canonical ``state_payload`` fingerprints bitwise-identically to a fresh
session rebuilt from scratch out of the same observable facts.  A
second property pins the integration result an edit re-derives to a
cold :class:`~repro.integration.integrator.Integrator` run over the
rebuilt session.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    rebuild_matches,
    reintegrate_from_scratch,
    state_payload_fingerprint,
)
from repro.equivalence.session import AnalysisSession
from repro.errors import ReproError, SchemaError
from repro.kernel.apply import schema_fingerprint
from repro.workloads import (
    EvolutionConfig,
    GeneratorConfig,
    generate_schema_pair,
    run_evolution_script,
)
from repro.workloads.university import build_sc1, build_sc2

from tests.kernel.test_property import apply_operation, operations


@settings(max_examples=25, deadline=None)
@given(st.lists(operations, max_size=20))
def test_incremental_state_equals_rebuilt_state(ops):
    live = AnalysisSession([build_sc1(), build_sc2()])
    for operation in ops:
        apply_operation(live, operation)
    incremental, rebuilt = rebuild_matches(live)
    assert incremental == rebuilt


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    concepts=st.integers(min_value=6, max_value=10),
)
def test_scripted_evolution_matches_rebuild_at_every_step(seed, concepts):
    pair = generate_schema_pair(GeneratorConfig(seed=seed, concepts=concepts))
    live = AnalysisSession()
    live.add_schema(pair.first)
    live.add_schema(pair.second)
    for first, second in sorted(pair.truth.attribute_pairs):
        live.declare_equivalent(str(first), str(second))
    for (first, second), kind in sorted(
        pair.truth.object_assertions.items(),
        key=lambda item: (str(item[0][0]), str(item[0][1])),
    ):
        live.specify(str(first), str(second), kind)

    config = EvolutionConfig(seed=seed, edits=6, invalidating_fraction=0.2)
    try:
        applied = run_evolution_script(live, config)
    except SchemaError:
        return  # this seed ran out of droppable asserted classes
    assert applied
    incremental, rebuilt = rebuild_matches(live)
    assert incremental == rebuilt


@settings(max_examples=10, deadline=None)
@given(st.lists(operations, max_size=12))
def test_patched_integration_equals_cold_reintegration(ops):
    from repro.tool.session import ToolSession

    session = ToolSession()
    session.adopt_schema(build_sc1())
    session.adopt_schema(build_sc2())
    for operation in ops:
        apply_operation(session.analysis, operation)
    try:
        session.integrate()
    except ReproError:
        return  # inconsistent sitting: nothing to patch
    edits = [
        ("edit", index)
        for index in range(5)  # the non-drop half of the palette
    ]
    for operation in edits:
        apply_operation(session.analysis, operation)
    # one edit through the tool layer, which shows the re-integration
    from repro.evolution import edit_from_payload

    session.apply_edit(
        "sc1",
        edit_from_payload(
            {"kind": "add_attribute", "object": "Department",
             "attribute": {"name": "Budget", "domain": {"kind": "integer"}}}
        ),
    )
    assert session.result is not None
    assert schema_fingerprint(session.result.schema) == (
        reintegrate_from_scratch(session.analysis, "sc1", "sc2")
    )
    incremental, rebuilt = rebuild_matches(session.analysis)
    assert incremental == rebuilt


def test_rebuild_oracle_round_trips_an_untouched_session():
    live = AnalysisSession([build_sc1(), build_sc2()])
    incremental, rebuilt = rebuild_matches(live)
    assert incremental == rebuilt
    assert incremental == state_payload_fingerprint(live)
