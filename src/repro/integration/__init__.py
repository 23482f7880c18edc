"""Schema integration (Phase 4).

Given two component schemas, the DDA's attribute equivalences and a
consistent assertion network, the integrator produces the integrated
schema:

* object classes connected by an ``equals`` assertion merge into one class
  (``E_`` prefix when the merge spans names);
* a ``contained in`` object class becomes a category of its container, its
  equivalent attributes absorbed into the container as derived (``D_``)
  attributes with recorded component attributes (Screens 12a/12b);
* ``may be`` and ``disjoint integrable`` pairs acquire a new derived
  parent class (``D_`` prefix built from four-letter abbreviations:
  ``D_Stud_Facu``) with both classes as categories;
* relationship sets integrate analogously, their participants re-pointed
  at the integrated object classes; and
* mappings from every component schema to the integrated schema are
  generated for request translation.

Clusters — groups of objects connected by any assertion except disjoint
non-integrable — partition the work.
"""

from repro._lazy import lazy_exports

__all__ = [
    "abbreviate",
    "derived_name",
    "equivalent_name",
    "merged_attribute_name",
    "NamePool",
    "Cluster",
    "compute_clusters",
    "connects_pair",
    "transitive_reduction",
    "ancestors_in_dag",
    "IntegrationResult",
    "IntegratedNode",
    "AttributeOrigin",
    "IntegrationOptions",
    "Integrator",
    "integrate_pair",
    "SchemaMapping",
    "build_mappings",
    "integrate_all",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "abbreviate": "repro.integration.naming",
        "derived_name": "repro.integration.naming",
        "equivalent_name": "repro.integration.naming",
        "merged_attribute_name": "repro.integration.naming",
        "NamePool": "repro.integration.naming",
        "Cluster": "repro.integration.clusters",
        "compute_clusters": "repro.integration.clusters",
        "connects_pair": "repro.integration.clusters",
        "transitive_reduction": "repro.integration.lattice",
        "ancestors_in_dag": "repro.integration.lattice",
        "IntegrationResult": "repro.integration.result",
        "IntegratedNode": "repro.integration.result",
        "AttributeOrigin": "repro.integration.result",
        "IntegrationOptions": "repro.integration.options",
        "Integrator": "repro.integration.integrator",
        "integrate_pair": "repro.integration.integrator",
        "SchemaMapping": "repro.integration.mappings",
        "build_mappings": "repro.integration.mappings",
        "integrate_all": "repro.integration.nary",
    },
)
