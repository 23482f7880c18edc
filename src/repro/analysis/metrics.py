"""Size and effort metrics used across the experiments."""

from __future__ import annotations

from dataclasses import dataclass

from repro.assertions.kinds import Source
from repro.assertions.network import AssertionNetwork
from repro.ecr.schema import Schema
from repro.integration.result import IntegrationResult


@dataclass(frozen=True)
class SchemaSize:
    """Structure counts of one schema."""

    entities: int
    categories: int
    relationships: int
    attributes: int

    @property
    def structures(self) -> int:
        return self.entities + self.categories + self.relationships

    def as_row(self) -> list[object]:
        return [self.entities, self.categories, self.relationships, self.attributes]


def schema_size(schema: Schema) -> SchemaSize:
    """Count a schema's structures and attributes."""
    return SchemaSize(
        len(schema.entity_sets()),
        len(schema.categories()),
        len(schema.relationship_sets()),
        schema.attribute_count(),
    )


@dataclass(frozen=True)
class EffortReport:
    """How much DDA input an integration needed and what it produced."""

    dda_assertions: int
    implicit_assertions: int
    derived_assertions: int
    equivalent_merges: int
    derived_parents: int
    derived_attributes: int

    @property
    def automation_ratio(self) -> float:
        """Assertions obtained for free per assertion the DDA typed."""
        if self.dda_assertions == 0:
            return 0.0
        return self.derived_assertions / self.dda_assertions


def integration_effort(
    network: AssertionNetwork, result: IntegrationResult
) -> EffortReport:
    """Summarise the DDA effort behind one integration result."""
    specified = network.specified_assertions()
    return EffortReport(
        dda_assertions=sum(
            1 for assertion in specified if assertion.source is Source.DDA
        ),
        implicit_assertions=sum(
            1 for assertion in specified if assertion.source is Source.IMPLICIT
        ),
        derived_assertions=network.derived_count(),
        equivalent_merges=len(result.equivalent_nodes()),
        derived_parents=len(result.derived_parent_nodes()),
        derived_attributes=len(result.derived_attributes()),
    )
