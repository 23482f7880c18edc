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
"""

import itertools
import os
import subprocess
import sys
from collections import deque
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
from repro.assertions.network import AssertionNetwork, _UndoLog
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
