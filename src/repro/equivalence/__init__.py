"""Attribute equivalence and object-class resemblance (Phase 2).

This package implements the paper's schema-analysis machinery:

* an **equivalence registry** over fully qualified attributes, maintaining
  the equivalence classes the DDA creates on Screen 7 (using the simplified
  equivalent/non-equivalent form of Larson et al. 1987);
* the **Attribute Class Similarity (ACS) matrix** recording, per pair of
  object classes, which of their attributes are equivalent;
* the **Object Class Similarity (OCS) matrix** counting equivalent
  attributes for each cross-schema object pair, derived from the ACS;
* the **resemblance function** — attribute ratio — and the future-work
  extensions (name similarity, synonym dictionary, weighted combinations);
* **candidate ordering**: the ranked list of object pairs shown to the DDA
  on Screen 8;
* **suggestion heuristics** that propose candidate attribute equivalences
  automatically (the paper's "syntactic processing enhancements"); and
* the :class:`AnalysisSession` **facade**, the recommended entry point,
  which owns the registry, the memoized matrix views and the assertion
  networks, sharing one set of instrumentation counters.
"""

from repro._lazy import lazy_exports

__all__ = [
    "AnalysisSession",
    "DisjointSet",
    "EquivalenceRegistry",
    "EquivalenceIssue",
    "RegistryChange",
    "AcsMatrix",
    "AcsCell",
    "OcsMatrix",
    "OcsEntry",
    "attribute_ratio",
    "AttributeRatio",
    "NameResemblance",
    "KeyResemblance",
    "DomainResemblance",
    "WeightedResemblance",
    "name_similarity",
    "CandidatePair",
    "ordered_object_pairs",
    "SynonymDictionary",
    "DEFAULT_SYNONYMS",
    "ConstructConflict",
    "suggest_construct_conflicts",
    "EquivalenceSuggestion",
    "suggest_equivalences",
    "apply_suggestions",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "DisjointSet": "repro.equivalence.union_find",
        "EquivalenceRegistry": "repro.equivalence.registry",
        "EquivalenceIssue": "repro.equivalence.registry",
        "RegistryChange": "repro.equivalence.registry",
        "AcsMatrix": "repro.equivalence.acs",
        "AcsCell": "repro.equivalence.acs",
        "OcsMatrix": "repro.equivalence.ocs",
        "OcsEntry": "repro.equivalence.ocs",
        "attribute_ratio": "repro.equivalence.resemblance",
        "AttributeRatio": "repro.equivalence.resemblance",
        "NameResemblance": "repro.equivalence.resemblance",
        "KeyResemblance": "repro.equivalence.resemblance",
        "DomainResemblance": "repro.equivalence.resemblance",
        "WeightedResemblance": "repro.equivalence.resemblance",
        "name_similarity": "repro.equivalence.resemblance",
        "CandidatePair": "repro.equivalence.ordering",
        "ordered_object_pairs": "repro.equivalence.ordering",
        "SynonymDictionary": "repro.equivalence.synonyms",
        "DEFAULT_SYNONYMS": "repro.equivalence.synonyms",
        "ConstructConflict": "repro.equivalence.constructs",
        "suggest_construct_conflicts": "repro.equivalence.constructs",
        "EquivalenceSuggestion": "repro.equivalence.heuristics",
        "suggest_equivalences": "repro.equivalence.heuristics",
        "apply_suggestions": "repro.equivalence.heuristics",
        "AnalysisSession": "repro.equivalence.session",
    },
)
