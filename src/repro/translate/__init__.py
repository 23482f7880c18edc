"""Translation of conventional data-model schemas into the ECR model.

Before integration, "all component schemas must be specified using a common
data model"; schemas defined in other models are translated first.  The
paper points at Navathe & Awong (1987), who interrogate a DDA to map
relational and hierarchical schemas into ECR; this package implements the
structural core of those procedures:

* :func:`translate_relational` — tables become entity sets, subtype tables
  (PK = FK) become categories, junction tables and plain foreign keys
  become relationship sets; and
* :func:`translate_hierarchical` — record types become entity sets and
  parent-child arcs become (1,1)/(0,n) relationship sets.
"""

from repro._lazy import lazy_exports

# ``to_relational`` is also the name of the module that defines it, and
# loading that module rebinds this package's attribute to the module.
# Binding the function first keeps ``repro.translate.to_relational`` the
# function whoever imports the module later.
from repro.translate.to_relational import to_relational

__all__ = [
    "Column",
    "ForeignKey",
    "Table",
    "RelationalSchema",
    "translate_relational",
    "to_relational",
    "Field",
    "RecordType",
    "HierarchicalSchema",
    "translate_hierarchical",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Column": "repro.translate.relational",
        "ForeignKey": "repro.translate.relational",
        "Table": "repro.translate.relational",
        "RelationalSchema": "repro.translate.relational",
        "translate_relational": "repro.translate.relational",
        "Field": "repro.translate.hierarchical",
        "RecordType": "repro.translate.hierarchical",
        "HierarchicalSchema": "repro.translate.hierarchical",
        "translate_hierarchical": "repro.translate.hierarchical",
    },
)
