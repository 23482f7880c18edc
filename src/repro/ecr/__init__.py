"""Entity-Category-Relationship (ECR) data model.

This package implements the conceptual data model the paper uses as its
common model for schema integration: the ECR model of Elmasri, Hevner and
Weeldreyer (1985), an extension of Chen's Entity-Relationship model with

* **categories** — named subsets of one or more object classes, used to
  represent generalisation hierarchies and subclasses; and
* **structural (cardinality) constraints** — ``(min, max)`` bounds on how
  entities of an object class participate in a relationship set.

The public surface is re-exported here so that users can write
``from repro.ecr import Schema, EntitySet`` without knowing the module
layout.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Domain",
    "DomainKind",
    "BUILTIN_DOMAINS",
    "domain_from_name",
    "domains_compatible",
    "Attribute",
    "AttributeRef",
    "ObjectClass",
    "EntitySet",
    "Category",
    "ObjectKind",
    "Participation",
    "CardinalityConstraint",
    "RelationshipSet",
    "CARDINALITY_MANY",
    "Schema",
    "ObjectRef",
    "coerce_attribute_ref",
    "coerce_object_ref",
    "SchemaBuilder",
    "ValidationIssue",
    "Severity",
    "validate_schema",
    "parse_ddl",
    "promote_attribute_to_entity",
    "demote_entity_to_attribute",
    "reify_relationship",
    "parse_ddl_schemas",
    "to_ddl",
    "schema_to_dict",
    "schema_from_dict",
    "ascii_diagram",
    "dot_diagram",
    "superclass_closure",
    "subclass_closure",
    "inherited_attributes",
    "root_classes",
    "leaf_classes",
    "isa_depth",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "Domain": "repro.ecr.domains",
        "DomainKind": "repro.ecr.domains",
        "BUILTIN_DOMAINS": "repro.ecr.domains",
        "domain_from_name": "repro.ecr.domains",
        "domains_compatible": "repro.ecr.domains",
        "Attribute": "repro.ecr.attributes",
        "AttributeRef": "repro.ecr.attributes",
        "ObjectClass": "repro.ecr.objects",
        "EntitySet": "repro.ecr.objects",
        "Category": "repro.ecr.objects",
        "ObjectKind": "repro.ecr.objects",
        "Participation": "repro.ecr.relationships",
        "CardinalityConstraint": "repro.ecr.relationships",
        "RelationshipSet": "repro.ecr.relationships",
        "CARDINALITY_MANY": "repro.ecr.relationships",
        "Schema": "repro.ecr.schema",
        "ObjectRef": "repro.ecr.schema",
        "coerce_attribute_ref": "repro.ecr.coerce",
        "coerce_object_ref": "repro.ecr.coerce",
        "SchemaBuilder": "repro.ecr.builder",
        "ValidationIssue": "repro.ecr.validation",
        "Severity": "repro.ecr.validation",
        "validate_schema": "repro.ecr.validation",
        "parse_ddl": "repro.ecr.ddl",
        "parse_ddl_schemas": "repro.ecr.ddl",
        "to_ddl": "repro.ecr.ddl",
        "schema_to_dict": "repro.ecr.json_io",
        "schema_from_dict": "repro.ecr.json_io",
        "ascii_diagram": "repro.ecr.diagram",
        "dot_diagram": "repro.ecr.diagram",
        "promote_attribute_to_entity": "repro.ecr.refactor",
        "demote_entity_to_attribute": "repro.ecr.refactor",
        "reify_relationship": "repro.ecr.refactor",
        "superclass_closure": "repro.ecr.walk",
        "subclass_closure": "repro.ecr.walk",
        "inherited_attributes": "repro.ecr.walk",
        "root_classes": "repro.ecr.walk",
        "leaf_classes": "repro.ecr.walk",
        "isa_depth": "repro.ecr.walk",
    },
)
