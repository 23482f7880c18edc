"""Derived assertions, read off the closure, pinned byte for byte.

A derived assertion is a pair whose feasible mask is one relation and
which carries no specified assertion; the network builds its
:class:`Assertion` from the mask and the pair's last support whenever it
is asked.  These digests were recorded at commit 2550ae7, when the
network still kept a materialised copy of every derived assertion, and
must not move: pair order, kind code, source, supports,
``integrability_decided``, the containment subset Phase 4 reads, and the
Screen 9 chain of every derived pair.

Each world is a whole DDA sitting as perfbench's ``sitting`` workload
runs it (seed-1 worlds, 34 concepts, overlap 0.6, category rate 1.0, two
planted contradictions), plus one 136-concept world of 442 classes.
Digests are taken after the review (every undetermined candidate pair
specified), after the retract of one DDA assertion and after it is
specified again.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.assertions.kinds import Source
from repro.equivalence.session import AnalysisSession
from repro.errors import ConflictError
from repro.workloads.generator import GeneratorConfig, generate_schema_pair

#: (world seed, concepts): 1000 and 1001 are the first two worlds of a
#: perfbench ``sitting`` run at seed 1 (114 classes each); the first is
#: also drawn at 136 concepts (442 classes).
WORLDS = [(1000, 34), (1001, 34), (1000, 136)]

#: SHA-256 per (world seed, concepts, stage), recorded at commit 2550ae7.
GOLDEN = {
    (1000, 34, "reviewed"): "e2b59bdc5d9df272a4cc9751d280c6e8825d7122158d96a001f38311b0db43ed",
    (1000, 34, "retracted"): "eb7ed3e45bf5310c27b80752241f3442a5e84d561d4d3fff983f370a53fdd2a4",
    (1000, 34, "respecified"): "f7200aa3b37fa75731c95f2e6885effad78a8d48df8d9440927cb29464f278ba",
    (1001, 34, "reviewed"): "6449a7f21c3053924b8b0a105b696b9a275e274cff09e38904d0d1572185db17",
    (1001, 34, "retracted"): "4fdd32935c25f552247e71b9b19402a68c4ae3961f8a3ee385eaf33994ca5626",
    (1001, 34, "respecified"): "767678dc23e4a7e6636ee5b74930f067f67511ff77c1407c1426041933b03c42",
    (1000, 136, "reviewed"): "6712a7d9bc410cae68b9ae762c3bb2afe956944b0fe1a263b6abeeaa0b082106",
    (1000, 136, "retracted"): "5af7de2dd77cfb0a2d1b28365e61da0d45e018b5777d902fbc330cbb67c848ae",
    (1000, 136, "respecified"): "cafa833ada3080b36dbd81b19ddb2f9dc27bb9ba62c5223d89940828f802ed34",
}


def _wire(assertion) -> list:
    return [
        str(assertion.first),
        str(assertion.second),
        assertion.kind.code,
        assertion.source.name,
        [[str(a), str(b)] for a, b in assertion.supports],
        assertion.integrability_decided,
        assertion.note,
    ]


def derived_digest(network) -> str:
    """One digest over the derived and containment reads and every
    derived pair's explain chain and oriented ``assertion_for``."""
    derived = network.derived_assertions()
    payload = {
        "derived": [_wire(a) for a in derived],
        "containment": [_wire(a) for a in network.containment_assertions()],
        "explain": [
            [_wire(a) for a in network.explain(d.first, d.second)]
            for d in derived
        ],
        "assertion_for": [
            _wire(network.assertion_for(d.second, d.first)) for d in derived
        ],
    }
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def sitting_digests(world_seed: int, concepts: int) -> dict[str, str]:
    """The ``sitting`` workload's DDA steps, digested at three stages."""
    pair = generate_schema_pair(
        GeneratorConfig(
            seed=world_seed,
            concepts=concepts,
            overlap=0.6,
            category_rate=1.0,
            contradictions=2,
        )
    )
    session = AnalysisSession([pair.first, pair.second])
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    candidates = session.candidate_pairs(
        pair.first.name, pair.second.name, include_zero=True
    )
    for planted in pair.contradictions:
        base, *extras = planted.all_facts
        for fact in (base, *extras[:-1]):
            session.specify(*fact)
        with pytest.raises(ConflictError):
            session.specify(*extras[-1])
    network = session.object_network
    for candidate in candidates:
        if network.is_undetermined(candidate.first, candidate.second):
            kind = pair.truth.assertion_between(
                candidate.first, candidate.second
            )
            session.specify(candidate.first, candidate.second, kind)
    digests = {"reviewed": derived_digest(network)}
    answered = [
        assertion for assertion in network.specified_assertions()
        if assertion.source is Source.DDA
    ]
    target = answered[len(answered) // 2]
    session.retract(target.first, target.second)
    digests["retracted"] = derived_digest(network)
    session.specify(target.first, target.second, target.kind)
    digests["respecified"] = derived_digest(network)
    return digests


@pytest.mark.parametrize(("world_seed", "concepts"), WORLDS)
def test_derived_reads_match_their_golden_digests(world_seed, concepts):
    digests = sitting_digests(world_seed, concepts)
    assert digests == {
        stage: GOLDEN[(world_seed, concepts, stage)]
        for stage in ("reviewed", "retracted", "respecified")
    }
