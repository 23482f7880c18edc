"""repro — a reproduction of the ICDE 1988 schema-integration tool.

Sheth, Larson, Cornelio & Navathe, *A Tool for Integrating Conceptual
Schemas and User Views* (Proc. 4th Intl. Conf. on Data Engineering, 1988).

The library covers the paper's four-phase methodology end to end:

1. **Schema collection** — the ECR data model (:mod:`repro.ecr`) plus
   translators from relational/hierarchical models (:mod:`repro.translate`);
2. **Schema analysis** — attribute equivalence classes, the ACS/OCS
   matrices and the resemblance heuristics (:mod:`repro.equivalence`);
3. **Assertion specification** — the five domain assertions, transitive
   derivation and conflict detection (:mod:`repro.assertions`);
4. **Integration** — merging, IS-A lattices, derived classes/attributes
   and schema mappings (:mod:`repro.integration`), with request rewriting
   in both integration contexts (:mod:`repro.query`).

The interactive tool itself lives in :mod:`repro.tool`; the paper's
example schemas and the synthetic workload generator in
:mod:`repro.workloads`.  Once an integration result exists, global
requests against it can be *executed* over the component databases by
the federated query engine (:mod:`repro.federation`): concurrent
fan-out, assertion-aware merging, and graceful degradation when
components fail.

Quickstart (the :class:`AnalysisSession` facade is the recommended entry
point — it owns the registry, the memoized OCS/ACS views and the assertion
networks, keeping them incrementally consistent)::

    from repro import AnalysisSession, AssertionKind, SchemaBuilder

    sc1 = SchemaBuilder("sc1").entity(
        "Student", attrs=[("Name", "char", True), ("GPA", "real")]
    ).build()
    sc2 = SchemaBuilder("sc2").entity(
        "Pupil", attrs=[("Name", "char", True)]
    ).build()

    session = AnalysisSession([sc1, sc2])
    session.declare_equivalent("sc1.Student.Name", "sc2.Pupil.Name")
    session.specify("sc1.Student", "sc2.Pupil", AssertionKind.EQUALS)

    result = session.integrate("sc1", "sc2")
    print(result.schema.summary())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    # ECR model
    "Attribute",
    "AttributeRef",
    "Category",
    "CardinalityConstraint",
    "Domain",
    "DomainKind",
    "EntitySet",
    "ObjectRef",
    "Participation",
    "RelationshipSet",
    "Schema",
    "SchemaBuilder",
    "ascii_diagram",
    "dot_diagram",
    "parse_ddl",
    "to_ddl",
    "validate_schema",
    # equivalence
    "AcsMatrix",
    "AnalysisCounters",
    "AnalysisSession",
    "CandidatePair",
    "EquivalenceRegistry",
    "OcsMatrix",
    "RegistryChange",
    "attribute_ratio",
    "ordered_object_pairs",
    # assertions
    "Assertion",
    "AssertionKind",
    "AssertionNetwork",
    "ConflictReport",
    "Relation",
    # integration
    "IntegrationOptions",
    "IntegrationResult",
    "Integrator",
    "SchemaMapping",
    "build_mappings",
    "integrate_all",
    "integrate_pair",
    # query
    "Request",
    "parse_request",
    "rewrite_to_components",
    "rewrite_to_integrated",
    # federation
    "ExecutionPolicy",
    "FederatedPlan",
    "FederationEngine",
    "FederationHealth",
    "FederationResult",
    "MergeStrategy",
    # errors
    "AssertionSpecError",
    "BackendError",
    "ConflictError",
    "ConsistencyFailure",
    "CorruptDictionaryError",
    "DdlError",
    "DictionaryError",
    "DictionaryFormatError",
    "DictionaryNotFoundError",
    "DuplicateNameError",
    "EquivalenceError",
    "FederationError",
    "IntegrationError",
    "KernelError",
    "MappingError",
    "QueryError",
    "ReplayError",
    "ReproError",
    "SchemaError",
    "ScriptError",
    "ToolError",
    "TranslationError",
    "UnknownNameError",
    "ValidationError",
    "WalError",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Attribute": "repro.ecr",
        "AttributeRef": "repro.ecr",
        "Category": "repro.ecr",
        "CardinalityConstraint": "repro.ecr",
        "Domain": "repro.ecr",
        "DomainKind": "repro.ecr",
        "EntitySet": "repro.ecr",
        "ObjectRef": "repro.ecr",
        "Participation": "repro.ecr",
        "RelationshipSet": "repro.ecr",
        "Schema": "repro.ecr",
        "SchemaBuilder": "repro.ecr",
        "ascii_diagram": "repro.ecr",
        "dot_diagram": "repro.ecr",
        "parse_ddl": "repro.ecr",
        "to_ddl": "repro.ecr",
        "validate_schema": "repro.ecr",
        "AcsMatrix": "repro.equivalence",
        "AnalysisSession": "repro.equivalence",
        "CandidatePair": "repro.equivalence",
        "EquivalenceRegistry": "repro.equivalence",
        "OcsMatrix": "repro.equivalence",
        "RegistryChange": "repro.equivalence",
        "attribute_ratio": "repro.equivalence",
        "ordered_object_pairs": "repro.equivalence",
        "AnalysisCounters": "repro.obs.metrics",
        "Assertion": "repro.assertions",
        "AssertionKind": "repro.assertions",
        "AssertionNetwork": "repro.assertions",
        "ConflictReport": "repro.assertions",
        "Relation": "repro.assertions",
        "IntegrationOptions": "repro.integration",
        "IntegrationResult": "repro.integration",
        "Integrator": "repro.integration",
        "SchemaMapping": "repro.integration",
        "build_mappings": "repro.integration",
        "integrate_all": "repro.integration",
        "integrate_pair": "repro.integration",
        "Request": "repro.query",
        "parse_request": "repro.query",
        "rewrite_to_components": "repro.query",
        "rewrite_to_integrated": "repro.query",
        "ExecutionPolicy": "repro.federation",
        "FederatedPlan": "repro.federation",
        "FederationEngine": "repro.federation",
        "FederationHealth": "repro.federation",
        "FederationResult": "repro.federation",
        "MergeStrategy": "repro.federation",
        "AssertionSpecError": "repro.errors",
        "BackendError": "repro.errors",
        "ConflictError": "repro.errors",
        "ConsistencyFailure": "repro.errors",
        "CorruptDictionaryError": "repro.errors",
        "DdlError": "repro.errors",
        "DictionaryError": "repro.errors",
        "DictionaryFormatError": "repro.errors",
        "DictionaryNotFoundError": "repro.errors",
        "DuplicateNameError": "repro.errors",
        "EquivalenceError": "repro.errors",
        "FederationError": "repro.errors",
        "IntegrationError": "repro.errors",
        "KernelError": "repro.errors",
        "MappingError": "repro.errors",
        "QueryError": "repro.errors",
        "ReplayError": "repro.errors",
        "ReproError": "repro.errors",
        "SchemaError": "repro.errors",
        "ScriptError": "repro.errors",
        "ToolError": "repro.errors",
        "TranslationError": "repro.errors",
        "UnknownNameError": "repro.errors",
        "ValidationError": "repro.errors",
        "WalError": "repro.errors",
    },
)
