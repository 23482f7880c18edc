"""The data dictionary: persistent state shared between design tools.

The paper's future work: *"A common representation of the database objects
and the mappings between them could be kept in a data dictionary available
to all of the tools."*  This package provides that dictionary — a
serialisable container holding component schemas, the DDA's attribute
equivalences, the specified assertions, and integration results with their
mappings — with JSON save/load and reconstruction of the live objects
(:class:`~repro.equivalence.registry.EquivalenceRegistry`,
:class:`~repro.assertions.network.AssertionNetwork`).
"""

from repro._lazy import lazy_exports

__all__ = [
    "DataDictionary",
    "result_to_dict",
    "result_from_dict",
    "mapping_to_dict",
    "mapping_from_dict",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "DataDictionary": "repro.dictionary.store",
        "result_to_dict": "repro.dictionary.serialize",
        "result_from_dict": "repro.dictionary.serialize",
        "mapping_to_dict": "repro.dictionary.serialize",
        "mapping_from_dict": "repro.dictionary.serialize",
    },
)
