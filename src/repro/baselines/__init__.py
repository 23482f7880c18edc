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

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "all_cross_pairs": "repro.baselines.ordering_baselines",
        "ordering_alphabetical": "repro.baselines.ordering_baselines",
        "ordering_random": "repro.baselines.ordering_baselines",
        "ordering_resemblance": "repro.baselines.ordering_baselines",
        "recall_at_k": "repro.baselines.ordering_baselines",
        "ClosureStats": "repro.baselines.closure_baselines",
        "drive_assertions_with_closure": "repro.baselines.closure_baselines",
        "drive_assertions_without_closure": "repro.baselines.closure_baselines",
        "derived_keys": "repro.baselines.solver_baselines",
        "naive_closure": "repro.baselines.solver_baselines",
        "objects_of": "repro.baselines.solver_baselines",
        "rebuild_matches": "repro.baselines.evolution_baselines",
        "rebuild_session": "repro.baselines.evolution_baselines",
        "reintegrate_from_scratch": "repro.baselines.evolution_baselines",
        "session_from_payload": "repro.baselines.evolution_baselines",
        "state_payload_fingerprint": "repro.baselines.evolution_baselines",
        "ladder_orders": "repro.baselines.strategies",
    },
)
