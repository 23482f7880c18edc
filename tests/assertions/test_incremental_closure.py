"""Incremental closure repair must be indistinguishable from a full rebuild.

The network repairs only the affected neighborhood on retract/respecify
(:meth:`AssertionNetwork._repair_after_retract`).  These tests drive an
incremental network and a full-rebuild network (``incremental=False``)
through identical scripts and require bit-identical feasible sets and
derived assertions, plus counter evidence that the incremental path really
did less work.

The row-wise propagation kernel is held to the per-element loop it
replaced the same way: :class:`LoopNetwork` keeps that loop verbatim,
and both engines must agree on every table, support, failed pair and
propagation step.

The via rows and overflow that hold the supports are held to the dict
and set tables they replaced: :class:`SetSupportNetwork` keeps those
tables, their undo log and the whole-index dependents rebuild, and both
must agree on every support, explanation, derivation and step.
"""

import itertools
import os
import subprocess
import sys
from collections import deque
from copy import deepcopy
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions.composition import (
    ALL_MASK,
    COMPOSE_MASK,
    CONVERSE_MASK,
    RELATION_BIT,
)
from repro.assertions.kinds import AssertionKind, Relation
from repro.assertions.network import AssertionNetwork, _UndoLog, _key
from repro.ecr.schema import ObjectRef
from repro.errors import AssertionSpecError, ConflictError
from tests.assertions.test_network import _actual_kind

OBJECTS = [ObjectRef("s", f"O{i}") for i in range(6)]

SPECIFIABLE_KINDS = [
    AssertionKind.EQUALS,
    AssertionKind.CONTAINED_IN,
    AssertionKind.CONTAINS,
    AssertionKind.DISJOINT_INTEGRABLE,
    AssertionKind.DISJOINT_NONINTEGRABLE,
    AssertionKind.MAY_BE,
]


def fresh_network(incremental: bool) -> AssertionNetwork:
    network = AssertionNetwork(incremental=incremental)
    for ref in OBJECTS:
        network.add_object(ref)
    return network


def state_of(network: AssertionNetwork):
    """Everything observable about a network, for equality comparison."""
    feasible = {
        (first, second): network.feasible(first, second)
        for first, second in itertools.combinations(OBJECTS, 2)
    }
    derived = {
        (a.first, a.second, a.kind) for a in network.derived_assertions()
    }
    specified = {
        (a.first, a.second, a.kind) for a in network.specified_assertions()
    }
    return feasible, derived, specified


def apply_script(network: AssertionNetwork, script) -> list[str]:
    """Run a script of (op, i, j, kind_index) tuples; log what happened.

    Failing operations are skipped — on identical states the same
    operation fails identically on both networks, which the returned log
    double-checks.
    """
    log = []
    for op, i, j, kind_index in script:
        first, second = OBJECTS[i], OBJECTS[j]
        kind = SPECIFIABLE_KINDS[kind_index]
        try:
            if op == "specify":
                network.specify(first, second, kind)
            elif op == "respecify":
                network.respecify(first, second, kind)
            else:
                network.retract(first, second)
            log.append(f"{op} {i} {j} {kind_index} ok")
        except (AssertionSpecError, ConflictError) as exc:
            log.append(f"{op} {i} {j} {kind_index} {type(exc).__name__}")
    return log


operations = st.lists(
    st.tuples(
        st.sampled_from(["specify", "specify", "respecify", "retract"]),
        st.integers(min_value=0, max_value=len(OBJECTS) - 1),
        st.integers(min_value=0, max_value=len(OBJECTS) - 1),
        st.integers(min_value=0, max_value=len(SPECIFIABLE_KINDS) - 1),
    ).filter(lambda op: op[1] != op[2]),
    min_size=1,
    max_size=25,
)


class TestEquivalenceWithFullRebuild:
    @settings(max_examples=60, deadline=None)
    @given(script=operations)
    def test_incremental_matches_full_rebuild(self, script):
        incremental = fresh_network(incremental=True)
        baseline = fresh_network(incremental=False)
        log_a = apply_script(incremental, script)
        log_b = apply_script(baseline, script)
        assert log_a == log_b
        assert state_of(incremental) == state_of(baseline)

    def test_chain_retract_middle(self):
        incremental = fresh_network(incremental=True)
        baseline = fresh_network(incremental=False)
        for network in (incremental, baseline):
            network.specify(OBJECTS[0], OBJECTS[1], AssertionKind.CONTAINED_IN)
            network.specify(OBJECTS[1], OBJECTS[2], AssertionKind.CONTAINED_IN)
            network.specify(OBJECTS[2], OBJECTS[3], AssertionKind.CONTAINED_IN)
            # O0 ⊂ O3 is now derived through the chain.
            assert network.feasible(OBJECTS[0], OBJECTS[3]) == frozenset(
                {Relation.PP}
            )
            network.retract(OBJECTS[1], OBJECTS[2])
        assert state_of(incremental) == state_of(baseline)
        # The derived conclusion died with its support.
        assert len(incremental.feasible(OBJECTS[0], OBJECTS[3])) > 1

    def test_unaffected_region_survives_untouched(self):
        network = fresh_network(incremental=True)
        network.specify(OBJECTS[0], OBJECTS[1], AssertionKind.EQUALS)
        network.specify(OBJECTS[3], OBJECTS[4], AssertionKind.CONTAINED_IN)
        network.counters.reset()
        network.retract(OBJECTS[0], OBJECTS[1])
        # The disconnected O3 ⊂ O4 edge was not recomputed.
        assert network.counters.closure_incremental_retracts == 1
        assert network.counters.closure_full_rebuilds == 0
        assert network.feasible(OBJECTS[3], OBJECTS[4]) == frozenset(
            {Relation.PP}
        )
        recomputed = network.counters.closure_pairs_recomputed
        assert recomputed >= 1
        # Only the retracted edge itself depended on the retracted edge.
        assert recomputed < len(OBJECTS) * (len(OBJECTS) - 1) // 2

    def test_incremental_flag_off_uses_full_rebuild(self):
        network = fresh_network(incremental=False)
        network.specify(OBJECTS[0], OBJECTS[1], AssertionKind.EQUALS)
        network.counters.reset()
        network.retract(OBJECTS[0], OBJECTS[1])
        assert network.counters.closure_full_rebuilds == 1
        assert network.counters.closure_incremental_retracts == 0

    def test_explain_survives_incremental_repair(self):
        network = fresh_network(incremental=True)
        a, b, c, d = OBJECTS[:4]
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.CONTAINED_IN)
        network.specify(c, d, AssertionKind.EQUALS)
        network.retract(c, d)
        chain = network.explain(a, c)
        assert {(x.first, x.second) for x in chain} == {(a, b), (b, c)}

    def test_state_unchanged_after_conflict_with_incremental(self):
        network = fresh_network(incremental=True)
        a, b, c = OBJECTS[:3]
        network.specify(a, b, AssertionKind.CONTAINED_IN)
        network.specify(b, c, AssertionKind.CONTAINED_IN)
        before = state_of(network)
        with pytest.raises(ConflictError):
            network.specify(a, c, AssertionKind.DISJOINT_NONINTEGRABLE)
        assert state_of(network) == before


#: One incremental retract on the EXP-CLO world (the yardstick the
#: benchmark overhead gates divide by); prints its propagation steps.
_EXP_CLO_RETRACT = """
import sys
sys.path.insert(0, sys.argv[1])
from harness import exp_clo_closure
_, network, target = exp_clo_closure()
before = network.counters.propagation_steps
network.retract(target.first, target.second)
print(network.counters.propagation_steps - before)
"""


def test_retract_work_does_not_depend_on_the_string_hash_seed():
    repo = Path(__file__).resolve().parents[2]

    def steps(hash_seed: str) -> int:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(repo / "src"), env.get("PYTHONPATH")])
        )
        result = subprocess.run(
            [sys.executable, "-c", _EXP_CLO_RETRACT, str(repo / "benchmarks")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=300,
        )
        return int(result.stdout)

    assert steps("0") == steps("2")


# -- the row-wise kernel against the per-element loop ------------------------------


class LoopNetwork(AssertionNetwork):
    """The network with the per-element ``_propagate`` loop it replaced.

    The loop below is kept verbatim: one Python iteration per third
    object k, narrowing (i, k) through j and then (k, j) through i.  The
    row-wise kernel must match it in every table, support, queue order,
    failed pair and step.
    """

    def _propagate(self, undo, seeds):
        rows = self._rows
        live = self._live
        narrow = self._narrow
        steps = 0
        queue = deque(seeds)
        try:
            while queue:
                i, j = queue.popleft()
                row_i = rows[i]
                row_j = rows[j]
                ij_universal = row_i[j] == ALL_MASK
                compose_ij = COMPOSE_MASK[row_i[j]]
                compose_ji = COMPOSE_MASK[row_j[i]]
                for k in live:
                    if k == i or k == j:
                        continue
                    rel_ik = row_i[k]
                    rel_jk = row_j[k]
                    # Narrow (i, k) through j: R(i,k) ∩= R(i,j) ∘ R(j,k).
                    if not (ij_universal and rel_jk == ALL_MASK):
                        steps += 1
                        new = rel_ik & compose_ij[rel_jk]
                        if new != rel_ik:
                            narrow(undo, i, k, j, new)
                            if not new:
                                return (i, k)
                            queue.append((i, k))
                            rel_ik = new
                    # Narrow (k, j) through i: R(k,j) ∩= R(k,i) ∘ R(i,j),
                    # computed as its converse R(j,k) ∩= R(j,i) ∘ R(i,k)
                    # so both legs come from the rows already in hand.
                    if not (ij_universal and rel_ik == ALL_MASK):
                        steps += 1
                        new = rel_jk & compose_ji[rel_ik]
                        if new != rel_jk:
                            narrow(undo, k, j, i, CONVERSE_MASK[new])
                            if not new:
                                return (k, j)
                            queue.append((k, j))
            return None
        finally:
            self.counters.propagation_steps += steps


_KERNEL_VERBS = ("specify", "specify", "specify", "respecify", "retract",
                 "remove", "add")


@st.composite
def kernel_scripts(draw):
    """A world of 4-9 sets plus a script of 1-40 steps over it.

    A step's kind is the world's true relation (``None``) or a random
    code, so scripts grow deep consistent networks and also hit
    conflicts; ``remove`` followed by ``add`` re-registers a node at the
    end of live order, away from its id order.
    """
    world = draw(
        st.lists(
            st.frozensets(st.integers(0, 5), min_size=1), min_size=4, max_size=9
        )
    )
    step = st.tuples(
        st.sampled_from(_KERNEL_VERBS),
        st.integers(0, len(world) - 1),
        st.integers(0, len(world) - 1),
        st.one_of(st.none(), st.none(), st.sampled_from(list(AssertionKind))),
    )
    return world, draw(st.lists(step, min_size=1, max_size=40))


def _run_step(network, refs, world, verb, i, j, kind):
    """One script step; returns the refused call's failed pair, if any.

    ``add`` re-registers a removed node when there is one, so it lands
    at the end of live order, away from its id order.
    """
    if kind is None:
        kind = _actual_kind(world[i], world[j])
    removed = [ref for ref in refs if ref not in network.objects()]
    try:
        if verb == "specify":
            network.specify(refs[i], refs[j], kind)
        elif verb == "respecify":
            network.respecify(refs[i], refs[j], kind)
        elif verb == "retract":
            network.retract(refs[i], refs[j])
        elif verb == "remove":
            network.remove_object(refs[i])
        else:
            network.add_object(removed[i % len(removed)] if removed else refs[i])
    except ConflictError as exc:
        report = exc.report
        return ("conflict", report.subject_first, report.subject_second)
    except AssertionSpecError:
        return ("rejected",)
    return ("ok",)


def _kernel_state(network: AssertionNetwork):
    """Every table the propagation writes, plus its step count."""
    return (
        [bytes(row) for row in network._rows],
        dict(network._supports),
        {key: set(index) for key, index in network._support_index.items()},
        network.derived_assertions(),
        [assertion.supports for assertion in network.derived_assertions()],
        list(network._live),
        network.counters.propagation_steps,
    )


@settings(deadline=None, max_examples=200)
@given(kernel_scripts())
def test_row_kernel_matches_the_per_element_loop_after_every_step(drawn):
    world, script = drawn
    refs = [ObjectRef("w", f"S{i}") for i in range(len(world))]
    row_wise = AssertionNetwork()
    loop = LoopNetwork()
    for network in (row_wise, loop):
        for ref in refs:
            network.add_object(ref)
    for verb, i, j, kind in script:
        outcome = _run_step(row_wise, refs, world, verb, i, j, kind)
        assert outcome == _run_step(loop, refs, world, verb, i, j, kind)
        assert _kernel_state(row_wise) == _kernel_state(loop)


# A specify that passes the direct check never empties a third pair: the
# closure's labels are minimal (see test_network.py's oracle), so every
# relation left feasible is consistent.  The kernel's failure path, and
# the partial step count it reports, are therefore driven here on
# arbitrary, not path-consistent tables.


def _raw_network(network_type, size, readded, masks):
    """``size`` nodes, ``readded`` moved to the end of live order, and
    R(x, y) for x < y set from ``masks`` without any propagation."""
    network = network_type()
    refs = [ObjectRef("w", f"S{i}") for i in range(size)]
    for ref in refs:
        network.add_object(ref)
    for node in readded:
        network.remove_object(refs[node])
        network.add_object(refs[node])
    pairs = itertools.combinations(range(size), 2)
    for (x, y), mask in zip(pairs, masks):
        network._put(x, y, mask)
    return network


def _propagated(network, seeds):
    undo = _UndoLog()
    failure = network._propagate(undo, seeds)
    return (
        failure,
        list(undo.entries.items()),
        [bytes(row) for row in network._rows],
        dict(network._supports),
        dict(network._support_index),
        network.counters.propagation_steps,
    )


@st.composite
def raw_tables(draw):
    size = draw(st.integers(4, 9))
    readded = draw(st.lists(st.integers(0, size - 1), max_size=3))
    mask = st.one_of(st.just(ALL_MASK), st.integers(1, ALL_MASK))
    masks = draw(
        st.lists(mask, min_size=size * (size - 1) // 2,
                 max_size=size * (size - 1) // 2)
    )
    seed = st.tuples(
        st.integers(0, size - 1), st.integers(0, size - 1)
    ).filter(lambda pair: pair[0] != pair[1])
    return size, readded, masks, draw(st.lists(seed, min_size=1, max_size=3))


@settings(deadline=None, max_examples=300)
@given(raw_tables())
def test_row_kernel_matches_the_loop_on_arbitrary_tables(drawn):
    size, readded, masks, seeds = drawn
    row_wise = _raw_network(AssertionNetwork, size, readded, masks)
    loop = _raw_network(LoopNetwork, size, readded, masks)
    assert _propagated(row_wise, seeds) == _propagated(loop, seeds)


def test_a_failure_is_reported_at_the_first_column_in_live_order():
    # node 1 is re-added, so live order is 0, 2, 3, 4, 1.  Seeding
    # S0 ⊂ S2 with S2 disjoint from S1 and S3, while S0 ⊂ S1 and S0 ⊂ S3,
    # empties both (0, 1) and (0, 3); the loop meets S3 first.
    masks = dict.fromkeys(itertools.combinations(range(5), 2), ALL_MASK)
    pp, dr = RELATION_BIT[Relation.PP], RELATION_BIT[Relation.DR]
    masks.update({(0, 2): pp, (0, 1): pp, (0, 3): pp, (1, 2): dr, (2, 3): dr})
    outcomes = []
    for network_type in (AssertionNetwork, LoopNetwork):
        network = _raw_network(network_type, 5, [1], list(masks.values()))
        outcomes.append(_propagated(network, [(0, 2)]))
    assert outcomes[0] == outcomes[1]
    failure, _, _, _, _, steps = outcomes[0]
    assert failure == (0, 3)
    assert steps == 1


def test_a_universal_pop_counts_the_non_universal_legs():
    """A queued pair with no constraint narrows nothing; its steps are
    the non-universal entries of its two rows, as the loop counts them."""
    pp = RELATION_BIT[Relation.PP]
    masks = [ALL_MASK, pp, ALL_MASK, pp, pp, ALL_MASK]  # pairs of 4 nodes
    outcomes = []
    for network_type in (AssertionNetwork, LoopNetwork):
        network = _raw_network(network_type, 4, [2], masks)
        outcomes.append(_propagated(network, [(0, 1)]))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][-1] == 3  # (0, 2), (1, 2) and (1, 3)


# -- the via rows against the dict and set support tables -------------------------


_ABSENT = object()


class _SetUndoLog:
    """The undo log of the dict and set support tables, kept verbatim."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        #: key -> (old mask, old last support, old support-index set)
        self.entries = {}

    def remember(self, network, key) -> None:
        if key in self.entries:
            return
        index = network._support_index.get(key)
        self.entries[key] = (
            network._rows[key[0]][key[1]],
            network._supports.get(key, _ABSENT),
            set(index) if index is not None else _ABSENT,
        )

    def rollback(self, network) -> None:
        for key, (mask, support, index) in self.entries.items():
            network._put(key[0], key[1], mask)
            if support is _ABSENT:
                network._supports.pop(key, None)
            else:
                network._supports[key] = support
            if index is _ABSENT:
                network._support_index.pop(key, None)
            else:
                network._support_index[key] = index


class SetSupportNetwork(AssertionNetwork):
    """The network with its supports in a dict of triples and a dict of
    sets, as before the via rows.

    ``_narrow``, the undo log and the retract's dependents rebuild (a
    reverse map over the whole index) are kept verbatim; the one line
    added to the repair fills its affected set in sorted order, as the
    via-row repair does, so both revise in the same order.  The via rows
    beside the tables stay empty.
    """

    _undo_log = _SetUndoLog
    # plain attributes in place of the base class's read-only views
    _supports = None
    _support_index = None

    def __init__(self) -> None:
        super().__init__()
        self._supports = {}
        self._support_index = {}

    def _narrow(self, undo, x, y, via, new):
        key = _key(x, y)
        undo.remember(self, key)
        self._put(x, y, new)
        support = (x, via, y)
        self._supports[key] = support
        index = self._support_index.get(key)
        if index is None:
            self._support_index[key] = {support}
        else:
            index.add(support)

    def _support_of(self, key):
        return self._supports.get(key)

    def _rebuild(self):
        self._supports = {}
        self._support_index = {}
        super()._rebuild()

    def _repair_after_retract(self, root):
        self.counters.closure_incremental_retracts += 1
        dependents = {}
        for narrowed, supports in self._support_index.items():
            for x, via, y in supports:
                dependents.setdefault(_key(x, via), set()).add(narrowed)
                dependents.setdefault(_key(via, y), set()).add(narrowed)
        affected = {root}
        stack = [root]
        while stack:
            key = stack.pop()
            for dependent in dependents.get(key, ()):
                if dependent not in affected:
                    affected.add(dependent)
                    stack.append(dependent)
        affected = set(sorted(affected))
        refs = self._refs
        for key in affected:
            self._put(key[0], key[1], ALL_MASK)
            self._supports.pop(key, None)
            self._support_index.pop(key, None)
        self.counters.closure_pairs_recomputed += len(affected)
        for key in affected:
            survivor = self._specified.get(key)
            if survivor is not None:
                self._put(
                    self._ids[survivor.first],
                    self._ids[survivor.second],
                    RELATION_BIT[survivor.relation],
                )
        undo = self._undo_log()
        neighbours = {}
        oriented = {}
        for key in affected:
            neighbours.setdefault(key[0], set()).add(key)
            neighbours.setdefault(key[1], set()).add(key)
            x, y = key
            oriented[key] = (y, x) if refs[y] < refs[x] else key
        rows = self._rows
        live = self._live
        steps = 0
        queue = deque(affected)
        queued = set(affected)
        try:
            while queue:
                key = queue.popleft()
                queued.discard(key)
                first, second = oriented[key]
                row_first = rows[first]
                changed = False
                for via in live:
                    if via == first or via == second:
                        continue
                    rel_first_via = row_first[via]
                    rel_via_second = rows[via][second]
                    if rel_first_via == ALL_MASK and rel_via_second == ALL_MASK:
                        continue
                    steps += 1
                    old = row_first[second]
                    new = old & COMPOSE_MASK[rel_first_via][rel_via_second]
                    if new == old:
                        continue
                    self._narrow(undo, first, second, via, new)
                    changed = True
                if changed:
                    for other in neighbours[key[0]] | neighbours[key[1]]:
                        if other != key and other not in queued:
                            queue.append(other)
                            queued.add(other)
        finally:
            self.counters.propagation_steps += steps


def _support_state(network: AssertionNetwork):
    """Every reading of the supports, plus the tables and step counts."""
    objects = network.objects()
    derived = network.derived_assertions()
    return (
        network._supports,
        network._support_index,
        {
            (first, second): network.explain(first, second)
            for first, second in itertools.permutations(objects, 2)
        },
        derived,
        [assertion.supports for assertion in derived],
        [bytes(row) for row in network._rows],
        network.counters.propagation_steps,
        network.counters.solver_propagation_steps,
    )


def _trial(network, refs, world, i, j, kind):
    """``trial`` on a pair of live nodes, or what refused it."""
    if kind is None:
        kind = _actual_kind(world[i], world[j])
    try:
        return network.trial(refs[i], refs[j], kind)
    except AssertionSpecError:
        return "rejected"


@settings(deadline=None, max_examples=200)
@given(kernel_scripts())
def test_via_rows_match_the_set_support_tables_after_every_step(drawn):
    world, script = drawn
    refs = [ObjectRef("w", f"S{i}") for i in range(len(world))]
    vias = AssertionNetwork()
    sets = SetSupportNetwork()
    for network in (vias, sets):
        network.add_objects(refs)
    for verb, i, j, kind in script:
        trial = _trial(vias, refs, world, j, i, kind)
        assert trial == _trial(sets, refs, world, j, i, kind)
        outcome = _run_step(vias, refs, world, verb, i, j, kind)
        assert outcome == _run_step(sets, refs, world, verb, i, j, kind)
        assert _support_state(vias) == _support_state(sets)


def _support_tables(network):
    return [bytes(row) for row in network._vias], deepcopy(network._extra)


def _overflow_steps(network):
    """Narrow one pair through four distinct supports under two undo
    logs, then roll both back: the support index and the overflow after
    each step."""
    network.add_objects(ObjectRef("w", f"S{i}") for i in range(6))
    steps = []
    first, second = network._undo_log(), network._undo_log()
    for undo, (x, y, via) in zip(
        (first, first, first, second, second),
        ((0, 1, 2), (0, 1, 3), (1, 0, 4), (0, 1, 2), (0, 1, 5)),
    ):
        network._narrow(undo, x, y, via, ALL_MASK)
        steps.append((deepcopy(network._support_index), deepcopy(network._extra)))
    for undo in (second, first):
        undo.rollback(network)
        steps.append((deepcopy(network._support_index), deepcopy(network._extra)))
    return steps


def test_supports_past_two_land_in_the_overflow_and_roll_back_exactly():
    vias = AssertionNetwork()
    steps = _overflow_steps(vias)
    oracle = _overflow_steps(SetSupportNetwork())
    assert [index for index, _ in steps] == [index for index, _ in oracle]
    three = {(0, 2, 1), (0, 3, 1), (1, 4, 0)}
    # two supports fit in the via cells; the third starts the overflow
    assert steps[1] == ({(0, 1): {(0, 2, 1), (0, 3, 1)}}, {})
    assert steps[2] == ({(0, 1): three}, {(0, 1): three})
    assert steps[4][1] == {(0, 1): three | {(0, 5, 1)}}
    # each rollback restores the overflow exactly
    assert steps[5] == steps[2]
    assert steps[6] == ({}, {})
    assert not any(any(row) for row in vias._vias)


# A = {4, 5}, B = {1, 2, 3, 4, 5}, C = {3, 4, 5}, D = {5}, E = {0, 1, 3, 4, 5}:
# the facts narrow (A, E) through D, then B, then C.
_OVERFLOW_WORLD = [
    frozenset({4, 5}), frozenset({1, 2, 3, 4, 5}), frozenset({3, 4, 5}),
    frozenset({5}), frozenset({0, 1, 3, 4, 5}),
]
_OVERFLOW_FACTS = [(0, 2), (1, 2), (0, 3), (3, 4), (1, 4), (2, 4)]


def _specified_network(network_type, world, facts):
    """A network over five classes A-E with ``facts`` specified from ``world``."""
    network = network_type()
    refs = [ObjectRef("w", name) for name in "ABCDE"]
    network.add_objects(refs)
    for i, j in facts:
        network.specify(refs[i], refs[j], _actual_kind(world[i], world[j]))
    return network, refs


def test_a_push_that_starts_an_overflow_rolls_back_exactly():
    network, _ = _specified_network(
        AssertionNetwork, _OVERFLOW_WORLD, _OVERFLOW_FACTS[:-1]
    )
    assert network._extra == {}
    before = _support_tables(network)
    x, y = _OVERFLOW_FACTS[-1]
    kind = _actual_kind(_OVERFLOW_WORLD[x], _OVERFLOW_WORLD[y])
    undo = _UndoLog()
    assert network._push(undo, [(x, y, RELATION_BIT[kind.relation])]) is None
    assert network._extra == {(0, 4): {(0, 3, 4), (0, 1, 4), (0, 2, 4)}}
    undo.rollback(network)
    assert _support_tables(network) == before


# A = {4, 5}, B = {0}, C = {4}, D = {1, 2, 3, 4, 5}, E = {0, 1, 2, 5}: the
# facts give (D, E) three supports, and only the first has (C, D) as a
# leg; no other pair leads from (C, D) to (D, E).
_LEG_WORLD = [
    frozenset({4, 5}), frozenset({0}), frozenset({4}),
    frozenset({1, 2, 3, 4, 5}), frozenset({0, 1, 2, 5}),
]
_LEG_FACTS = [(2, 3), (0, 4), (2, 4), (1, 3), (1, 4), (0, 3)]


def test_retracting_a_leg_only_the_overflow_uses_resets_its_dependent():
    (vias, refs), (oracle, _) = (
        _specified_network(network_type, _LEG_WORLD, _LEG_FACTS)
        for network_type in (AssertionNetwork, SetSupportNetwork)
    )
    assert (3, 4) in vias._extra
    assert (3, 4) in vias._dependent_closure((2, 3))
    extra, vias._extra = vias._extra, {}
    assert (3, 4) not in vias._dependent_closure((2, 3))
    vias._extra = extra
    for network in (vias, oracle):
        network.retract(refs[2], refs[3])
    # (D, E) was reset: none of its supports has (C, D) as a leg any more
    assert not any(
        {x, via} == {2, 3} or {via, y} == {2, 3}
        for x, via, y in vias._support_index.get((3, 4), ())
    )
    assert _support_state(vias) == _support_state(oracle)
