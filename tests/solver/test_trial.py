"""What-if answers from a trial on the live network, pinned and checked.

Suggestions and :func:`~repro.solver.explain_assertion` label a
hypothetical assertion by narrowing its pair on the session's own
network, propagating from that one pair and rolling back.  Two checks
hold them to the throwaway closure of every specified fact they
replace:

* the wire output of ``suggest_assertions`` and ``explain_assertion``
  on pinned worlds matches digests recorded at commit 70335ed, when
  both still re-closed every fact on a throwaway network per candidate;
* on generated worlds, at seeded points through a sitting, the trial's
  verdict and consequences equal those of the throwaway closure, and
  the trial leaves the network exactly as it found it.

Each generated world is set up as perfbench's ``sitting`` workload sets
it up (34 concepts, overlap 0.6, category rate 1.0, two planted
contradictions), plus shared relationship sets so the relationship
network carries facts too.  The points are: attribute equivalences
declared, planted contradictions specified, half the review, the whole
review, one DDA assertion retracted, and that assertion specified again.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import AssertionKind, Source
from repro.equivalence.session import AnalysisSession
from repro.errors import ConflictError
from repro.solver.engine import derived_from, propagate
from repro.workloads.generator import GeneratorConfig, generate_schema_pair
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    PAPER_RELATIONSHIP_CODES,
    build_sc1,
    build_sc2,
    build_sc3,
    build_sc4,
)

#: SHA-256 of the what-if wire output per (world, point), recorded at
#: commit 70335ed.
GOLDEN = {
    ("paper", "declared"): "c8251d4d67df14ee1d3e661a3c1a69ec9216f7729fd091f97c81e2451d058580",
    ("paper", "reviewed"): "12dd3eeb2eb9b0990e851f6931a91b0d40257c84bd58ce09c2b26911c1235b7d",
    ("seed1000", "declared"): "959475731f4bb3bef55b06bc8ead75104e567775a0704d6aef66cbfc512f0265",
    ("seed1000", "planted"): "70d0934093a16eab0c4d97d902857af176c2d5ec570c784373d41d46833fa9cd",
    ("seed1000", "half"): "2b64791ce6a9517cf8ae52cd45eb4b5d0c0c2093a87fe75e9a30a5eb8a3ca668",
    ("seed1000", "reviewed"): "7b489e5d3a768bdb4140fc4d8d3b23d942de2e1ccb1fbb82befa9d41c7b466f0",
    ("seed1000", "retracted"): "d32ace42c90b663428b9dcde5447f45e7a6dc0e49c7ac9728fd65d160646f3a5",
    ("seed1000", "respecified"): "34c7388dd871ca4bffa8152ec81a42e4964f853ec8065da740b51d2bf07443b3",
    ("seed1001", "declared"): "ba370929cc888b7c5cb6abfaddb1099d91e7bf992f1089e61d3b98d5fcb17939",
    ("seed1001", "planted"): "7cedd1dcd967f9a735854ffb855d40e310ded473a66194b9b477493ae5158d49",
    ("seed1001", "half"): "d841096e9a7e47f854060d592fca7c1e0650d7a9ad878b01e9c647650a8f2e6a",
    ("seed1001", "reviewed"): "94229b5d0f6cf684b8d2fd8bd6ba7039cbf223776f94b40001dcc9389cbde440",
    ("seed1001", "retracted"): "cdd7e2589c46b75d1d3b6202e34b8811a7663ab94942fc589d61473520554d42",
    ("seed1001", "respecified"): "ee6b7109fae21be8a354a46024f6cb9e1ab0ed864c59130f3a1477ede6fdb57d",
}

KINDS = list(AssertionKind)


def _paper_points():
    """The paper's sc1..sc4 session, before and after the Screen 8 codes."""
    session = AnalysisSession([build_sc1(), build_sc2(), build_sc3(), build_sc4()])
    for first, second in (
        ("sc1.Student.Name", "sc2.Grad_student.Name"),
        ("sc1.Student.Name", "sc2.Faculty.Name"),
        ("sc1.Student.GPA", "sc2.Grad_student.GPA"),
        ("sc1.Department.Name", "sc2.Department.Name"),
        ("sc1.Majors.Since", "sc2.Majors.Since"),
    ):
        session.declare_equivalent(first, second)
    yield "declared", session
    for first, second, code in PAPER_ASSERTION_CODES:
        session.specify(first, second, code)
    for first, second, code in PAPER_RELATIONSHIP_CODES:
        session.specify(first, second, code, relationships=True)
    yield "reviewed", session


def _sitting_points(world_seed: int):
    """A generated world's sitting, yielded at six points."""
    pair = generate_schema_pair(
        GeneratorConfig(
            seed=world_seed,
            concepts=34,
            overlap=0.6,
            category_rate=1.0,
            contradictions=2,
            shared_relationship_rate=0.5,
        )
    )
    session = AnalysisSession([pair.first, pair.second])
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    yield "declared", session
    candidates = session.candidate_pairs(
        pair.first.name, pair.second.name, include_zero=True
    )
    for planted in pair.contradictions:
        base, *extras = planted.all_facts
        for fact in (base, *extras[:-1]):
            session.specify(*fact)
        with pytest.raises(ConflictError):
            session.specify(*extras[-1])
    yield "planted", session
    network = session.object_network
    relationship_truth = sorted(pair.truth.relationship_assertions.items())
    for index, candidate in enumerate(candidates):
        if index == len(candidates) // 2:
            for (first, second), kind in relationship_truth[::2]:
                session.specify(first, second, kind, relationships=True)
            yield "half", session
        if network.is_undetermined(candidate.first, candidate.second):
            kind = pair.truth.assertion_between(
                candidate.first, candidate.second
            )
            session.specify(candidate.first, candidate.second, kind)
    yield "reviewed", session
    answered = [
        assertion
        for assertion in network.specified_assertions()
        if assertion.source is Source.DDA
    ]
    target = answered[len(answered) // 2]
    session.retract(target.first, target.second)
    yield "retracted", session
    session.specify(target.first, target.second, target.kind)
    yield "respecified", session


WORLDS = {
    "paper": _paper_points,
    "seed1000": lambda: _sitting_points(1000),
    "seed1001": lambda: _sitting_points(1001),
}


def _probes(network, rng: random.Random, count: int):
    """``count`` seeded (first, second, kind) probes across two schemas."""
    objects = network.objects()
    probes = []
    while len(probes) < count:
        first, second = rng.sample(objects, 2)
        if first.schema == second.schema and rng.random() < 0.7:
            continue
        probes.append((first, second, rng.choice(KINDS)))
    return probes


def what_if_wire(session: AnalysisSession, rng: random.Random) -> dict:
    """Suggestions and explanations on both networks, as wire dicts."""
    names = [schema.name for schema in session.registry.schemas()]
    first_schema, second_schema = names[0], names[1]
    wire: dict = {}
    for relationships in (False, True):
        network = session.network_for(relationships)
        wire[f"suggest.{relationships}"] = [
            suggestion.to_wire()
            for suggestion in session.suggest_assertions(
                first_schema, second_schema, relationships=relationships
            )
        ]
        if len(network.objects()) < 2:
            continue
        wire[f"explain.{relationships}"] = [
            session.explain_assertion(
                first, second, kind, relationships=relationships
            ).to_wire()
            for first, second, kind in _probes(
                network, rng, 6 if relationships else 10
            )
        ]
    return wire


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_what_if_output_matches_its_golden_digests(world):
    rng = random.Random(f"what-if/{world}")
    digests = {
        point: _digest(what_if_wire(session, rng))
        for point, session in WORLDS[world]()
    }
    assert digests == {
        point: GOLDEN[(world, point)] for point in digests
    }


def _closure_consequences(facts, candidate):
    """The throwaway-closure answer the trial replaces: ``None`` on a
    conflict, else the pairs the candidate newly derives, by pair."""
    trial = propagate(facts + [candidate])
    if trial.culprit is not None:
        return None
    specified_pairs = {fact.pair for fact in facts}
    before = derived_from(propagate(facts).domains, specified_pairs)
    after = derived_from(trial.domains, specified_pairs | {candidate.pair})
    return tuple(
        after[pair] for pair in sorted(after) if before.get(pair) != after[pair]
    )


def _network_state(session, network):
    return (
        [bytes(row) for row in network._rows],
        dict(network._supports),
        {key: set(index) for key, index in network._support_index.items()},
        network.counters.propagation_steps,
        session.kernel.bus.offset,
    )


@pytest.mark.parametrize("world_seed", [1002, 1003])
def test_trial_matches_the_throwaway_closure_and_leaves_no_trace(world_seed):
    rng = random.Random(f"trial/{world_seed}")
    points = 0
    for point, session in _sitting_points(world_seed):
        points += 1
        for relationships in (False, True):
            network = session.network_for(relationships)
            facts = network.specified_assertions()
            for first, second, kind in _probes(network, rng, 12):
                candidate = Assertion(first, second, kind)
                expected = _closure_consequences(facts, candidate)
                before = _network_state(session, network)
                solver_steps = network.counters.solver_propagation_steps
                probe = (point, relationships, first, second, kind)
                assert network.trial(first, second, kind) == expected, probe
                if expected is not None:
                    explanation = session.explain_assertion(
                        first, second, kind, relationships=relationships
                    )
                    assert explanation.consistent, probe
                    assert explanation.consequences == expected, probe
                assert _network_state(session, network) == before
                if expected is not None and network.is_undetermined(
                    first, second
                ):
                    assert network.counters.solver_propagation_steps > (
                        solver_steps
                    )
    assert points == 6
