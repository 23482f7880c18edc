"""Incremental closure repair must be indistinguishable from a full rebuild.

The network repairs only the affected neighborhood on retract/respecify
(:meth:`AssertionNetwork._repair_after_retract`).  These tests drive an
incremental network and a full-rebuild network (``incremental=False``)
through identical scripts and require bit-identical feasible sets and
derived assertions, plus counter evidence that the incremental path really
did less work.
"""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assertions.kinds import AssertionKind, Relation
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import ObjectRef
from repro.errors import AssertionSpecError, ConflictError

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
