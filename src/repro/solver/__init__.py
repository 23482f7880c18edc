"""Constraint-propagation inference over assertion networks.

The batch counterpart of :mod:`repro.assertions`'s incremental path
consistency, run on the network's own closure kernel, in three pieces:

* :mod:`repro.solver.engine` — a fact list closed on a fresh network by
  one push through :class:`~repro.assertions.network.AssertionNetwork`'s
  one narrow-and-propagate entry point (:func:`propagate`,
  :class:`ConstraintSolver`), and what-if explanations answered by a
  rolled-back trial on the live network (:func:`explain_assertion`);
* :mod:`repro.solver.explain` — QuickXplain minimal conflict sets: which
  of the committed facts to retract when propagation finds a
  contradiction (:func:`minimal_conflict`, :func:`verify_conflict`),
  each probe one push onto a shared network, rolled back when its
  recursion returns;
* :mod:`repro.solver.suggest` — ranked equivalence suggestions, each
  labelled by a trial on the live network (:func:`suggest_equivalence_assertions`).

On conflict-free inputs the solver's derived-assertion set provably
equals the network's incremental closure (see ``tests/solver``); on
inconsistent inputs it raises :class:`~repro.errors.ConsistencyFailure`
with a verified-minimal conflict set instead of one derivation chain.
"""

from repro._lazy import lazy_exports

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

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ConsistencyFailure": "repro.errors",
        "AssertionExplanation": "repro.solver.engine",
        "ConstraintSolver": "repro.solver.engine",
        "Propagation": "repro.solver.engine",
        "SolverSolution": "repro.solver.engine",
        "explain_assertion": "repro.solver.engine",
        "propagate": "repro.solver.engine",
        "is_consistent": "repro.solver.explain",
        "minimal_conflict": "repro.solver.explain",
        "verify_conflict": "repro.solver.explain",
        "SolverSuggestion": "repro.solver.suggest",
        "suggest_equivalence_assertions": "repro.solver.suggest",
    },
)
