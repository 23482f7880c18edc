"""Assertion-entry baselines (experiments EXP-CLO and EXP-CON).

The paper derives assertions "using rules of transitive composition" so
the DDA need not type every pair.  These drivers replay an oracle DDA over
all cross-schema pairs:

* **with closure** — before asking, check whether the network has already
  determined the pair; skip the question if so;
* **without closure** — ask (and record) every pair regardless.

Both count the questions the DDA answers, the assertions derived for free
and the conflicts raised (for EXP-CON, the oracle can be corrupted to give
wrong answers at a known rate).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.assertions.kinds import AssertionKind
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import ObjectRef, Schema
from repro.errors import ConflictError

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.workloads.oracle import GroundTruth

_CODES = [kind for kind in AssertionKind]


@dataclass
class ClosureStats:
    """Outcome of replaying assertion entry over one schema pair."""

    pairs_total: int = 0
    questions_asked: int = 0
    derived_free: int = 0
    conflicts: int = 0
    conflict_pairs: list[tuple[ObjectRef, ObjectRef]] = field(
        default_factory=list
    )

    @property
    def questions_saved(self) -> int:
        """Questions the DDA did not have to answer."""
        return self.pairs_total - self.questions_asked

    @property
    def savings_ratio(self) -> float:
        if self.pairs_total == 0:
            return 0.0
        return self.questions_saved / self.pairs_total


def _review_order(first: Schema, second: Schema) -> list[
    tuple[ObjectRef, ObjectRef]
]:
    return [
        (ObjectRef(first.name, a.name), ObjectRef(second.name, b.name))
        for a in first.object_classes()
        for b in second.object_classes()
    ]


def _answer(
    truth: GroundTruth,
    pair: tuple[ObjectRef, ObjectRef],
    error_rate: float,
    rng: random.Random,
) -> AssertionKind:
    kind = truth.assertion_between(pair[0], pair[1])
    if error_rate > 0 and rng.random() < error_rate:
        wrong = [candidate for candidate in _CODES if candidate is not kind]
        return rng.choice(wrong)
    return kind


def drive_assertions_with_closure(
    first: Schema,
    second: Schema,
    truth: GroundTruth,
    error_rate: float = 0.0,
    seed: int = 0,
) -> tuple[AssertionNetwork, ClosureStats]:
    """Replay the oracle with transitive derivation enabled (the tool)."""
    rng = random.Random(seed)
    network = AssertionNetwork()
    network.seed_schema(first)
    network.seed_schema(second)
    stats = ClosureStats()
    for pair in _review_order(first, second):
        stats.pairs_total += 1
        if not network.is_undetermined(*pair):
            stats.derived_free += 1
            continue
        stats.questions_asked += 1
        kind = _answer(truth, pair, error_rate, rng)
        try:
            network.specify(pair[0], pair[1], kind)
        except ConflictError:
            stats.conflicts += 1
            stats.conflict_pairs.append(pair)
    return network, stats


def drive_assertions_without_closure(
    first: Schema,
    second: Schema,
    truth: GroundTruth,
    error_rate: float = 0.0,
    seed: int = 0,
) -> ClosureStats:
    """Replay the oracle with no derivation: every pair is a question.

    Contradictory answers go undetected (there is no consistency check
    either), which is exactly what EXP-CON contrasts: the baseline's
    conflict count is always zero even when the answers disagree.
    """
    rng = random.Random(seed)
    stats = ClosureStats()
    for pair in _review_order(first, second):
        stats.pairs_total += 1
        stats.questions_asked += 1
        _answer(truth, pair, error_rate, rng)
    return stats
