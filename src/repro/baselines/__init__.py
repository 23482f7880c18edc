"""Baselines the experiments compare the paper's heuristics against.

* :mod:`repro.baselines.ordering_baselines` — candidate-pair orderings
  (random, alphabetical, exhaustive) against the OCS resemblance ordering;
* :mod:`repro.baselines.closure_baselines` — assertion entry with and
  without transitive derivation; and
* :mod:`repro.baselines.strategies` — integration-order strategies for
  n-ary integration; and
* :mod:`repro.baselines.solver_baselines` — the naive path-consistency
  fixpoint both the assertion network and the batch constraint solver
  are checked against; and
* :mod:`repro.baselines.evolution_baselines` — the from-scratch rebuild
  oracle incremental schema-evolution repair is pinned to.
"""

from repro.baselines.ordering_baselines import (
    all_cross_pairs,
    ordering_alphabetical,
    ordering_random,
    ordering_resemblance,
    recall_at_k,
)
from repro.baselines.closure_baselines import (
    ClosureStats,
    drive_assertions_with_closure,
    drive_assertions_without_closure,
)
from repro.baselines.solver_baselines import (
    derived_keys,
    naive_closure,
    objects_of,
)
from repro.baselines.evolution_baselines import (
    rebuild_matches,
    rebuild_session,
    reintegrate_from_scratch,
    session_from_payload,
    state_payload_fingerprint,
)
from repro.baselines.strategies import ladder_orders

__all__ = [
    "derived_keys",
    "naive_closure",
    "objects_of",
    "all_cross_pairs",
    "ordering_alphabetical",
    "ordering_random",
    "ordering_resemblance",
    "recall_at_k",
    "ClosureStats",
    "drive_assertions_with_closure",
    "drive_assertions_without_closure",
    "ladder_orders",
    "rebuild_matches",
    "rebuild_session",
    "reintegrate_from_scratch",
    "session_from_payload",
    "state_payload_fingerprint",
]
