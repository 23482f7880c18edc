"""Requests over ECR schemas and their translation through mappings.

Phase 4 of the methodology generates mappings that "are used to translate
requests in an operational system after integration":

* logical database design — requests against component schemas (user
  views) are converted into requests against the integrated schema
  (:func:`rewrite_to_integrated`); and
* global schema design — requests against the integrated (global) schema
  are mapped into requests against the component databases
  (:func:`rewrite_to_components`).

The request language is a small conjunctive select over one object class
with optional relationship traversals — enough to exercise every mapping
direction without building a full query engine.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Comparison",
    "Join",
    "Request",
    "parse_request",
    "ComponentRequest",
    "rewrite_to_components",
    "rewrite_to_integrated",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Comparison": "repro.query.ast",
        "Join": "repro.query.ast",
        "Request": "repro.query.ast",
        "parse_request": "repro.query.parser",
        "ComponentRequest": "repro.query.rewrite",
        "rewrite_to_components": "repro.query.rewrite",
        "rewrite_to_integrated": "repro.query.rewrite",
    },
)
