"""Assertion specification, derivation and consistency (Phase 3).

An *assertion* specifies the relationship between the real-world domains of
two object classes in different schemas (Section 2 of the paper).  The five
domain relationships — equals, contained-in, contains, overlap ("may be")
and disjoint — are exactly the RCC-5 base relations, so we implement the
paper's "rules of transitive composition of assertions" as the RCC-5
composition table and its consistency checking as path consistency over a
qualitative constraint network.  Whether a disjoint/overlapping pair is
*integrable* is the DDA's subjective choice and rides along as metadata.

Public surface:

* :class:`AssertionKind` — the six Screen 8/9 codes (0-5);
* :class:`Assertion` — a specified, implicit or derived assertion with
  provenance;
* :class:`AssertionNetwork` — the Entity Assertion matrix generalised to a
  constraint network with derivation and conflict detection;
* :class:`ConflictReport` — the Screen 9 conflict explanation.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AssertionKind",
    "Relation",
    "Source",
    "ALL_RELATIONS",
    "compose",
    "compose_sets",
    "converse",
    "converse_set",
    "Assertion",
    "AssertionNetwork",
    "ConflictReport",
    "render_screen9",
    "assertion_code_matrix",
    "render_assertion_matrix",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AssertionKind": "repro.assertions.kinds",
        "Relation": "repro.assertions.kinds",
        "Source": "repro.assertions.kinds",
        "ALL_RELATIONS": "repro.assertions.composition",
        "compose": "repro.assertions.composition",
        "compose_sets": "repro.assertions.composition",
        "converse": "repro.assertions.composition",
        "converse_set": "repro.assertions.composition",
        "Assertion": "repro.assertions.assertion",
        "AssertionNetwork": "repro.assertions.network",
        "ConflictReport": "repro.assertions.conflicts",
        "render_screen9": "repro.assertions.conflicts",
        "assertion_code_matrix": "repro.assertions.matrix",
        "render_assertion_matrix": "repro.assertions.matrix",
    },
)
