"""Edit repair is pinned to the independent naive fixpoint.

After every schema edit — scripted attribute and class edits, cascade
drops of asserted classes, and category-parent changes that re-derive
the implicit containments — each assertion network's feasible table and
derived assertions must equal :func:`~repro.baselines.naive_closure`
over the network's objects and specified assertions.  The naive fixpoint
shares no code with the closure kernel, so a stale narrowing that the
localized repair left behind fails here.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_closure
from repro.equivalence.session import AnalysisSession
from repro.errors import ReproError, SchemaError
from repro.evolution import SetCategoryParents
from repro.workloads import (
    EvolutionConfig,
    GeneratorConfig,
    evolution_script,
    generate_schema_pair,
)


def assert_at_naive_fixpoint(session: AnalysisSession) -> None:
    for network in (session.object_network, session.relationship_network):
        closure = naive_closure(
            network.objects(), network.specified_assertions()
        )
        assert closure is not None
        table, derived = closure
        assert network.feasible_table() == table
        assert {
            (assertion.pair, assertion.kind.code)
            for assertion in network.derived_assertions()
        } == derived


def reparent_edit(session: AnalysisSession, rng: random.Random):
    """A category-parent change to another entity set, if any exists."""
    sites = []
    for schema in session.schemas():
        entities = sorted(
            structure.name
            for structure in schema.object_classes()
            if not structure.is_category
        )
        for category in schema.categories():
            others = [
                name for name in entities if [name] != category.parents
            ]
            if others:
                sites.append((schema.name, category.name, others))
    if not sites:
        return None
    schema, category, others = rng.choice(sorted(sites))
    return schema, SetCategoryParents(category, (rng.choice(others),))


def state_key(session: AnalysisSession) -> str:
    return json.dumps(session.state_payload(), sort_keys=True)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    concepts=st.integers(min_value=4, max_value=8),
)
def test_every_edit_leaves_both_networks_at_the_naive_fixpoint(
    seed, concepts
):
    pair = generate_schema_pair(
        GeneratorConfig(seed=seed, concepts=concepts, category_rate=0.5)
    )
    session = AnalysisSession([pair.first, pair.second])
    for first, second in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(str(first), str(second))
    for (first, second), kind in sorted(
        pair.truth.object_assertions.items(),
        key=lambda item: (str(item[0][0]), str(item[0][1])),
    ):
        session.specify(str(first), str(second), kind)
    assert_at_naive_fixpoint(session)

    rng = random.Random(seed)
    script = evolution_script(
        session, EvolutionConfig(seed=seed, edits=8, invalidating_fraction=0.3)
    )
    while True:
        try:
            scripted = next(script)
        except (StopIteration, SchemaError):
            break  # done, or no droppable asserted class is left
        session.apply_edit(scripted.schema, scripted.edit)
        assert_at_naive_fixpoint(session)
        reparent = reparent_edit(session, rng)
        if reparent is None:
            continue
        before = state_key(session)
        try:
            session.apply_edit(*reparent)
        except ReproError:
            # the re-derived containment clashed with the DDA's facts:
            # the edit rolled back
            assert state_key(session) == before
        assert_at_naive_fixpoint(session)
