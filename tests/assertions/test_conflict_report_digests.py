"""Refused assertions: the 409 payload and Screen 9, pinned and counted.

A refused ``specify`` carries a
:class:`~repro.assertions.conflicts.ConflictReport`.  Its wire form (the
service's 409 details) and its Screen 9 rendering both show the
QuickXplain conflict set over the committed fact log.  Two checks:

* on the paper world and two generated worlds, the wire form and the
  rendering of every refused probe match digests recorded before the
  report stopped closing the fact log twice;
* building the conflict set pushes the whole fact log onto a network
  once (:meth:`~repro.assertions.network.AssertionNetwork._push`), not
  once for a pre-check and once more inside ``minimal_conflict``.

The generated worlds are set up as perfbench's ``sitting`` workload
sets them up (34 concepts, overlap 0.6, category rate 1.0, two planted
contradictions), as in ``tests/solver/test_trial.py``.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.assertions.conflicts import render_screen9
from repro.assertions.kinds import AssertionKind
from repro.assertions.network import AssertionNetwork
from repro.equivalence.session import AnalysisSession
from repro.errors import AssertionSpecError, ConflictError
from repro.workloads.generator import GeneratorConfig, generate_schema_pair
from repro.workloads.university import (
    PAPER_ASSERTION_CODES,
    build_sc1,
    build_sc2,
    build_sc3,
    build_sc4,
)

#: SHA-256 of the refused probes' wire forms and Screen 9 renderings.
GOLDEN = {
    "paper": "bf4fc2d22676d78a7d6cb81c1003d77afe91982bfa08d65f90b8a09b56d21e44",
    "seed1000": "6f3eaf73f328356fbc92ddca4a7235d13dd625f7fb5314a3d7fc0cdbf216fb68",
    "seed1001": "e71ba9a8f7183fbbc643a0c3faf627535d1ac7f84c00b2ccead704277cd58d80",
}

KINDS = list(AssertionKind)


def _paper_session() -> AnalysisSession:
    session = AnalysisSession(
        [build_sc1(), build_sc2(), build_sc3(), build_sc4()]
    )
    session.declare_equivalent("sc1.Student.Name", "sc2.Grad_student.Name")
    for first, second, code in PAPER_ASSERTION_CODES:
        session.specify(first, second, code)
    # Screen 9's scenario: an instructor is a graduate student
    session.specify("sc3.Instructor", "sc4.Grad_student", 2)
    return session


def _generated_session(world_seed: int) -> AnalysisSession:
    pair = generate_schema_pair(
        GeneratorConfig(
            seed=world_seed,
            concepts=34,
            overlap=0.6,
            category_rate=1.0,
            contradictions=2,
        )
    )
    session = AnalysisSession([pair.first, pair.second])
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    for planted in pair.contradictions:
        base, *extras = planted.all_facts
        for fact in (base, *extras[:-1]):
            session.specify(*fact)
    network = session.object_network
    for candidate in session.candidate_pairs(
        pair.first.name, pair.second.name
    ):
        if network.is_undetermined(candidate.first, candidate.second):
            session.specify(
                candidate.first,
                candidate.second,
                pair.truth.assertion_between(
                    candidate.first, candidate.second
                ),
            )
    return session


WORLDS = {
    "paper": _paper_session,
    "seed1000": lambda: _generated_session(1000),
    "seed1001": lambda: _generated_session(1001),
}


def refused_reports(session: AnalysisSession, rng: random.Random, count: int):
    """Reports of up to ``count`` seeded probes the session refuses.

    Probes run over object pairs in a seeded order; a probe is tried
    only when the what-if trial says the session would refuse it, so the
    state the world was built to never moves.
    """
    network = session.object_network
    objects = network.objects()
    pairs = [
        (first, second)
        for first in objects
        for second in objects
        if str(first) < str(second)
    ]
    rng.shuffle(pairs)
    specified = {
        frozenset((assertion.first, assertion.second))
        for assertion in network.specified_assertions()
    }
    reports = []
    for first, second in pairs:
        if len(reports) == count:
            break
        if frozenset((first, second)) in specified:
            continue
        refused = [
            kind
            for kind in rng.sample(KINDS, len(KINDS))
            if network.trial(first, second, kind) is None
        ]
        if not refused:
            continue
        with pytest.raises(ConflictError) as error:
            session.specify(first, second, refused[0])
        reports.append(error.value.report)
    return reports


def _digest(reports) -> str:
    payload = [
        {"wire": report.to_wire(), "screen9": render_screen9(report)}
        for report in reports
    ]
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


@pytest.mark.parametrize("world", sorted(WORLDS))
def test_refused_reports_match_their_golden_digests(world):
    session = WORLDS[world]()
    reports = refused_reports(session, random.Random(f"refused/{world}"), 8)
    assert reports
    assert _digest(reports) == GOLDEN[world]


def test_conflict_set_closes_the_whole_fact_log_once(monkeypatch):
    session = _generated_session(1000)
    reports = refused_reports(session, random.Random("refused/count"), 3)
    assert reports
    for report in reports:
        full = len(report.facts) + 1
        closures = []
        real = AssertionNetwork._push

        def counting(network, undo, facts):
            facts = list(facts)
            if len(facts) >= full:
                closures.append(len(facts))
            return real(network, undo, facts)

        monkeypatch.setattr(AssertionNetwork, "_push", counting)
        report.minimal_conflict()
        monkeypatch.setattr(AssertionNetwork, "_push", real)
        assert closures == [full]
