"""N-ary integration: more than two component schemas.

The paper: *"A user can define any number of schemas, but only two schemas
can be integrated at a time.  A result of integration of two schemas can be
integrated with another schema; thus multiple schemas can be integrated."*

:func:`integrate_all` drives that iteration.  The correspondences for each
step come from a :class:`~repro.workloads.oracle.GroundTruth` expressed
over the *original* component schemas; the driver threads them through the
accumulated mappings so that, at every step, the intermediate schema's
elements are matched against the next component correctly — exactly what a
DDA does when reviewing an intermediate result against a new view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.assertions.network import AssertionNetwork
from repro.ecr.attributes import AttributeRef
from repro.ecr.schema import ObjectRef, Schema
from repro.equivalence.registry import EquivalenceRegistry
from repro.errors import IntegrationError
from repro.integration.integrator import Integrator
from repro.integration.mappings import SchemaMapping
from repro.integration.options import IntegrationOptions
from repro.integration.result import IntegrationResult
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.workloads.oracle import GroundTruth


def integrate_all(
    schemas: list[Schema],
    truth: GroundTruth,
    *,
    result_name: str = "global",
    options: IntegrationOptions | None = None,
) -> tuple[IntegrationResult, dict[str, SchemaMapping]]:
    """Integrate a list of schemas pairwise-left-to-right.

    Returns the final integration result and, for every original component
    schema, the composed mapping into the final integrated schema.
    ``result_name`` and ``options`` are keyword-only.

    Raises
    ------
    IntegrationError
        If fewer than two schemas are given.
    """
    if options is None:
        options = IntegrationOptions()
    if len(schemas) < 2:
        raise IntegrationError("n-ary integration needs at least two schemas")
    # Where every original element currently lives: start with identity.
    object_home: dict[ObjectRef, tuple[str, str]] = {}
    attribute_home: dict[AttributeRef, tuple[str, str, str]] = {}
    current = schemas[0]
    for structure in current:
        ref = ObjectRef(current.name, structure.name)
        object_home[ref] = (current.name, structure.name)
        for attribute in structure.attributes:
            aref = ref.attribute(attribute.name)
            attribute_home[aref] = (current.name, structure.name, attribute.name)
    result: IntegrationResult | None = None
    for step, incoming in enumerate(schemas[1:], start=1):
        step_name = (
            result_name if step == len(schemas) - 1 else f"{result_name}_step{step}"
        )
        with span("phase4.nary.step", step=step, incoming=incoming.name):
            result = _integrate_step(
                current, incoming, truth, object_home, attribute_home,
                options, step_name,
            )
            _advance_homes(result, incoming, object_home, attribute_home)
        current = result.schema
    assert result is not None
    mappings = _final_mappings(schemas, result, object_home, attribute_home)
    return result, mappings


def _integrate_step(
    current: Schema,
    incoming: Schema,
    truth: GroundTruth,
    object_home: dict[ObjectRef, tuple[str, str]],
    attribute_home: dict[AttributeRef, tuple[str, str, str]],
    options: IntegrationOptions,
    step_name: str,
) -> IntegrationResult:
    registry = EquivalenceRegistry([current, incoming])
    _declare_step_equivalences(
        registry, current, incoming, truth, attribute_home
    )
    network = AssertionNetwork()
    network.seed_schema(current)
    network.seed_schema(incoming)
    rel_network = AssertionNetwork()
    rel_network = _seed_relationship_network(current, incoming)
    _specify_step_assertions(
        network, rel_network, current, incoming, truth, object_home
    )
    integrator = Integrator(registry, network, rel_network, options)
    return integrator.integrate(current.name, incoming.name, step_name)


def _seed_relationship_network(
    current: Schema, incoming: Schema
) -> AssertionNetwork:
    rel_network = AssertionNetwork()
    for schema in (current, incoming):
        for relationship in schema.relationship_sets():
            rel_network.add_object(ObjectRef(schema.name, relationship.name))
    return rel_network


def _declare_step_equivalences(
    registry: EquivalenceRegistry,
    current: Schema,
    incoming: Schema,
    truth: GroundTruth,
    attribute_home: dict[AttributeRef, tuple[str, str, str]],
) -> None:
    for first, second in sorted(truth.attribute_pairs):
        sides = []
        for ref in (first, second):
            if ref.schema == incoming.name:
                sides.append(AttributeRef(incoming.name, ref.object_name, ref.attribute))
            elif ref in attribute_home:
                schema_name, object_name, attribute = attribute_home[ref]
                if schema_name != current.name:
                    sides = []
                    break
                sides.append(AttributeRef(current.name, object_name, attribute))
            else:
                sides = []
                break
        if len(sides) != 2 or sides[0].schema == sides[1].schema:
            continue
        registry.declare_equivalent(sides[0], sides[1])


def _specify_step_assertions(
    network: AssertionNetwork,
    rel_network: AssertionNetwork,
    current: Schema,
    incoming: Schema,
    truth: GroundTruth,
    object_home: dict[ObjectRef, tuple[str, str]],
) -> None:
    for relationship_flag, table in (
        (False, truth.object_assertions),
        (True, truth.relationship_assertions),
    ):
        target = rel_network if relationship_flag else network
        seen: set[tuple[ObjectRef, ObjectRef]] = set()
        for (first, second), kind in sorted(
            table.items(), key=lambda item: (str(item[0][0]), str(item[0][1]))
        ):
            refs = _orient_step_pair(
                first, second, current, incoming, object_home
            )
            if refs is None:
                continue
            mapped_first, mapped_second = refs
            if (mapped_first, mapped_second) in seen:
                continue
            seen.add((mapped_first, mapped_second))
            oriented = truth.assertion_between(first, second, relationship_flag)
            if target.assertion_for(mapped_first, mapped_second) is not None:
                continue
            target.specify(mapped_first, mapped_second, oriented)


def _orient_step_pair(
    first: ObjectRef,
    second: ObjectRef,
    current: Schema,
    incoming: Schema,
    object_home: dict[ObjectRef, tuple[str, str]],
) -> tuple[ObjectRef, ObjectRef] | None:
    """Map an original pair onto (current, incoming) refs if it spans them."""

    def locate(ref: ObjectRef) -> ObjectRef | None:
        if ref.schema == incoming.name:
            return ref
        home = object_home.get(ref)
        if home is None or home[0] != current.name:
            return None
        return ObjectRef(current.name, home[1])

    mapped_first = locate(first)
    mapped_second = locate(second)
    if mapped_first is None or mapped_second is None:
        return None
    spans = {mapped_first.schema, mapped_second.schema}
    if spans != {current.name, incoming.name}:
        return None
    return mapped_first, mapped_second


def _advance_homes(
    result: IntegrationResult,
    incoming: Schema,
    object_home: dict[ObjectRef, tuple[str, str]],
    attribute_home: dict[AttributeRef, tuple[str, str, str]],
) -> None:
    """Push every original element's location through the latest step."""
    new_schema = result.schema.name
    for original, (schema_name, object_name) in list(object_home.items()):
        mapped = result.object_mapping.get(ObjectRef(schema_name, object_name))
        if mapped is not None:
            object_home[original] = (new_schema, mapped)
    for structure in incoming:
        ref = ObjectRef(incoming.name, structure.name)
        mapped = result.object_mapping.get(ref)
        if mapped is not None:
            object_home[ref] = (new_schema, mapped)
    for original, (schema_name, object_name, attribute) in list(
        attribute_home.items()
    ):
        mapped = result.attribute_mapping.get(
            AttributeRef(schema_name, object_name, attribute)
        )
        if mapped is not None:
            attribute_home[original] = (new_schema, mapped[0], mapped[1])
    for structure in incoming:
        for attribute in structure.attributes:
            aref = AttributeRef(incoming.name, structure.name, attribute.name)
            mapped = result.attribute_mapping.get(aref)
            if mapped is not None:
                attribute_home[aref] = (new_schema, mapped[0], mapped[1])


def _final_mappings(
    schemas: list[Schema],
    result: IntegrationResult,
    object_home: dict[ObjectRef, tuple[str, str]],
    attribute_home: dict[AttributeRef, tuple[str, str, str]],
) -> dict[str, SchemaMapping]:
    final_name = result.schema.name
    mappings = {
        schema.name: SchemaMapping(schema.name, final_name) for schema in schemas
    }
    for original, (schema_name, object_name) in object_home.items():
        if schema_name == final_name and original.schema in mappings:
            mappings[original.schema].objects[original.object_name] = object_name
    for original, (schema_name, object_name, attribute) in attribute_home.items():
        if schema_name == final_name and original.schema in mappings:
            mappings[original.schema].attributes[
                (original.object_name, original.attribute)
            ] = (object_name, attribute)
    return mappings
