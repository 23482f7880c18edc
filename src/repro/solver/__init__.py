"""Constraint-propagation inference over assertion networks.

The batch counterpart of :mod:`repro.assertions`'s incremental path
consistency, run on the network's own closure kernel, in three pieces:

* :mod:`repro.solver.engine` — a fact list closed in one batch-seeded
  run of :class:`~repro.assertions.network.AssertionNetwork`'s
  path-consistency loop on a throwaway network (:func:`propagate`,
  :class:`ConstraintSolver`, :func:`explain_assertion`);
* :mod:`repro.solver.explain` — QuickXplain minimal conflict sets: which
  of the committed facts to retract when propagation finds a
  contradiction (:func:`minimal_conflict`, :func:`verify_conflict`);
* :mod:`repro.solver.suggest` — ranked, trial-propagated equivalence
  suggestions (:func:`suggest_equivalence_assertions`).

On conflict-free inputs the solver's derived-assertion set provably
equals the network's incremental closure (see ``tests/solver``); on
inconsistent inputs it raises :class:`~repro.errors.ConsistencyFailure`
with a verified-minimal conflict set instead of one derivation chain.
"""

from repro.errors import ConsistencyFailure
from repro.solver.engine import (
    AssertionExplanation,
    ConstraintSolver,
    Propagation,
    SolverSolution,
    explain_assertion,
    propagate,
)
from repro.solver.explain import (
    is_consistent,
    minimal_conflict,
    verify_conflict,
)
from repro.solver.suggest import (
    SolverSuggestion,
    suggest_equivalence_assertions,
)

__all__ = [
    "AssertionExplanation",
    "ConsistencyFailure",
    "ConstraintSolver",
    "Propagation",
    "SolverSolution",
    "SolverSuggestion",
    "explain_assertion",
    "is_consistent",
    "minimal_conflict",
    "propagate",
    "suggest_equivalence_assertions",
    "verify_conflict",
]
