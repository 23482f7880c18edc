"""The integration engine: Phase 4 of the methodology.

Orchestrates object-class integration, relationship-set integration and
mapping generation for one pair of component schemas, following Section 3.5
of the paper:

1. **clusters** of related objects are formed (logged, for the trace);
2. object classes connected by ``equals`` merge; ``contained in`` pairs
   become IS-A edges; decided ``may be``/``disjoint integrable`` pairs get
   a new derived parent — together these form the IS-A lattice;
3. attributes are merged within each integrated class by equivalence
   class, with cross-level classes absorbed into the highest class that
   owns them (this is how ``Student`` ends up with ``D_Name`` composed of
   ``sc1.Student.Name`` and ``sc2.Grad_student.Name``, Screen 12);
4. relationship sets integrate the same way, their legs re-pointed at the
   integrated object classes; and
5. the component→integrated mappings are recorded on the result.
"""

from __future__ import annotations

from repro.assertions.assertion import Assertion
from repro.assertions.kinds import Relation
from repro.assertions.network import AssertionNetwork
from repro.ecr.objects import Category, EntitySet
from repro.ecr.relationships import (
    CardinalityConstraint,
    Participation,
    RelationshipSet,
)
from repro.ecr.schema import ObjectRef, Schema
from repro.ecr.validation import assert_valid
from repro.equivalence.registry import EquivalenceRegistry
from repro.equivalence.union_find import DisjointSet
from repro.errors import IntegrationError
from repro.integration.attribute_merge import AttributePool, merge_pool
from repro.integration.clusters import compute_clusters, connecting_assertions
from repro.integration.lattice import AncestorMap, transitive_reduction
from repro.integration.naming import NamePool, derived_name, equivalent_name
from repro.integration.options import IntegrationOptions
from repro.integration.result import IntegratedNode, IntegrationResult
from repro.obs.trace import span


def canonical_assertions(assertions: list[Assertion]) -> list[Assertion]:
    """Assertions in history-independent order, sorted by endpoint names.

    Specification order varies with the DDA's path through a sitting and
    is deliberately dropped by the canonical state payload (the kernel's
    baseline, an audit snapshot), so a session rebuilt from one
    re-specifies in sorted order.
    Integration output must be identical either way — every pass over a
    network iterates its :func:`connecting_assertions` in this order.
    :meth:`Integrator.integrate` reads and sorts them once per network
    per call and hands the list to each pass; each pass picks out the
    assertions it acts on, all of which connect.
    """
    return sorted(
        assertions,
        key=lambda assertion: (str(assertion.first), str(assertion.second)),
    )


class Integrator:
    """Integrates pairs of schemas registered in an equivalence registry."""

    def __init__(
        self,
        registry: EquivalenceRegistry,
        network: AssertionNetwork,
        relationship_network: AssertionNetwork | None = None,
        options: IntegrationOptions = IntegrationOptions(),
    ) -> None:
        self._registry = registry
        self._network = network
        self._relationship_network = relationship_network
        self._options = options

    # -- public API -----------------------------------------------------------

    def integrate(
        self,
        first_schema: str,
        second_schema: str,
        result_name: str = "integrated",
    ) -> IntegrationResult:
        """Integrate two registered schemas into one integrated schema."""
        schema_a = self._registry.schema(first_schema)
        schema_b = self._registry.schema(second_schema)
        counters = self._registry.counters
        with span(
            "phase4.integrate",
            counters=counters,
            first=first_schema,
            second=second_schema,
        ):
            result = IntegrationResult(Schema(result_name))
            names = NamePool()
            # the pair's object classes, in registration order
            refs = self._object_refs(schema_a) + self._object_refs(schema_b)
            with span("phase4.clusters", counters=counters):
                connecting = connecting_assertions(self._network)
                self._log_clusters(refs, connecting, result)
            with span("phase4.objects.merge", counters=counters):
                # one sorted list serves every pass over the object network
                assertions = canonical_assertions(connecting)
                node_names, members_by_node = self._merge_object_classes(
                    refs, assertions, names, result
                )
            with span("phase4.isa.edges", counters=counters):
                edges = self._collect_isa_edges(
                    schema_a, schema_b, assertions, node_names
                )
            with span("phase4.isa.derived_parents", counters=counters):
                edges = self._add_derived_parents(
                    assertions, node_names, members_by_node, names, edges,
                    result,
                )
                edges = transitive_reduction(edges)
            with span("phase4.objects.build", counters=counters):
                self._build_object_classes(
                    members_by_node, edges, result
                )
            with span("phase4.relationships.merge", counters=counters):
                self._merge_relationship_sets(
                    schema_a, schema_b, names, result
                )
            if self._options.validate_result:
                with span("phase4.validate", counters=counters):
                    assert_valid(result.schema)
            result.note(f"integration complete: {result.schema.summary()}")
            return result

    # -- phase logging -----------------------------------------------------------

    def _log_clusters(
        self,
        refs: list[ObjectRef],
        connecting: list[Assertion],
        result: IntegrationResult,
    ) -> None:
        """Log the pair's clusters and keep their partition on ``result``."""
        clusters = compute_clusters(
            self._network, refs, connecting=connecting
        )
        result.clusters = tuple(
            frozenset(cluster.members) for cluster in clusters
        )
        multi = [cluster for cluster in clusters if not cluster.is_singleton]
        result.note(
            f"clusters: {len(clusters)} total, {len(multi)} with "
            f"cross-schema structure"
        )
        for cluster in multi:
            result.note(f"  cluster {cluster}")

    @staticmethod
    def _object_refs(schema: Schema) -> list[ObjectRef]:
        return [
            ObjectRef(schema.name, structure.name)
            for structure in schema.object_classes()
        ]

    # -- object-class merging ------------------------------------------------------

    def _merge_object_classes(
        self,
        refs: list[ObjectRef],
        assertions: list[Assertion],
        names: NamePool,
        result: IntegrationResult,
    ) -> tuple[dict[ObjectRef, str], dict[str, list[ObjectRef]]]:
        """Group object classes by ``equals`` assertions and name the groups."""
        chosen = set(refs)
        groups: DisjointSet[ObjectRef] = DisjointSet(refs)
        for assertion in assertions:
            if (
                assertion.relation is Relation.EQ
                and assertion.first in chosen
                and assertion.second in chosen
            ):
                groups.union(assertion.first, assertion.second)
        node_names: dict[ObjectRef, str] = {}
        members_by_node: dict[str, list[ObjectRef]] = {}
        for members in groups.classes():
            if len(members) == 1:
                node_name = names.claim(members[0].object_name)
                origin = "copy"
            else:
                node_name = names.claim(
                    equivalent_name([member.object_name for member in members])
                )
                origin = "equivalent"
                result.note(
                    f"equals merge: {node_name} <- "
                    + ", ".join(str(member) for member in members)
                )
            for member in members:
                node_names[member] = node_name
                result.object_mapping[member] = node_name
            members_by_node[node_name] = list(members)
            result.nodes[node_name] = IntegratedNode(
                node_name, list(members), origin
            )
        return node_names, members_by_node

    def _collect_isa_edges(
        self,
        schema_a: Schema,
        schema_b: Schema,
        assertions: list[Assertion],
        node_names: dict[ObjectRef, str],
    ) -> list[tuple[str, str]]:
        """IS-A edges from definite containments and original categories."""
        chosen = set(node_names)
        edges: list[tuple[str, str]] = []
        for assertion in assertions:
            if assertion.first not in chosen or assertion.second not in chosen:
                continue
            if assertion.relation is Relation.PP:
                child, parent = assertion.first, assertion.second
            elif assertion.relation is Relation.PPI:
                child, parent = assertion.second, assertion.first
            else:
                continue
            child_node = node_names[child]
            parent_node = node_names[parent]
            if child_node != parent_node:
                edges.append((child_node, parent_node))
        for schema in (schema_a, schema_b):
            for category in schema.categories():
                child_node = node_names[ObjectRef(schema.name, category.name)]
                for parent in category.parents:
                    parent_node = node_names[ObjectRef(schema.name, parent)]
                    if child_node != parent_node:
                        edges.append((child_node, parent_node))
        return list(dict.fromkeys(edges))

    def _add_derived_parents(
        self,
        assertions: list[Assertion],
        node_names: dict[ObjectRef, str],
        members_by_node: dict[str, list[ObjectRef]],
        names: NamePool,
        edges: list[tuple[str, str]],
        result: IntegrationResult,
    ) -> list[tuple[str, str]]:
        """Create ``D_`` parents for decided overlap/disjoint-integrable pairs."""
        chosen = set(node_names)
        seen_pairs: set[frozenset[str]] = set()
        for assertion in assertions:
            if assertion.first not in chosen or assertion.second not in chosen:
                continue
            # a connecting overlap/disjointness is integrable and decided
            if assertion.relation not in (Relation.PO, Relation.DR):
                continue
            node_a = node_names[assertion.first]
            node_b = node_names[assertion.second]
            if node_a == node_b:
                continue
            pair = frozenset({node_a, node_b})
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            parent_name = names.claim(derived_name([node_a, node_b]))
            components = list(members_by_node[node_a]) + list(
                members_by_node[node_b]
            )
            result.nodes[parent_name] = IntegratedNode(
                parent_name, components, "derived-parent"
            )
            members_by_node[parent_name] = []
            edges.append((node_a, parent_name))
            edges.append((node_b, parent_name))
            result.note(
                f"derived parent: {parent_name} over {node_a}, {node_b} "
                f"({assertion.kind.describe(str(assertion.first), str(assertion.second))})"
            )
        return edges

    # -- attribute placement and final construction -----------------------------------

    def _build_object_classes(
        self,
        members_by_node: dict[str, list[ObjectRef]],
        edges: list[tuple[str, str]],
        result: IntegrationResult,
    ) -> None:
        pools = self._gather_pools(members_by_node)
        self._absorb_upward(pools, edges)
        if self._options.pull_up_shared_attributes:
            self._pull_up_to_derived_parents(pools, edges, result)
        parents_of: dict[str, list[str]] = {}
        for child, parent in edges:
            parents_of.setdefault(child, []).append(parent)
        for node_name, pool in pools.items():
            attributes, origins = merge_pool(pool, self._registry, self._options)
            description = self._merged_description(members_by_node[node_name])
            parents = parents_of.get(node_name, [])
            if parents:
                structure = Category(
                    node_name, attributes, description, parents=parents
                )
            else:
                structure = EntitySet(node_name, attributes, description)
            result.schema.add(structure)
            for origin in origins:
                result.attribute_origins[(node_name, origin.attribute)] = origin
                for component in origin.components:
                    result.attribute_mapping[component] = (
                        node_name,
                        origin.attribute,
                    )
                if origin.is_derived:
                    result.note(
                        f"derived attribute: {node_name}.{origin.attribute} <- "
                        + ", ".join(str(ref) for ref in origin.components)
                    )

    def _gather_pools(
        self, members_by_node: dict[str, list[ObjectRef]]
    ) -> dict[str, AttributePool]:
        pools: dict[str, AttributePool] = {}
        for node_name, members in members_by_node.items():
            pool = AttributePool(node_name)
            for member in members:
                schema = self._registry.schema(member.schema)
                structure = schema.get(member.object_name)
                for attribute in structure.attributes:
                    pool.add(member.attribute(attribute.name), attribute)
            pools[node_name] = pool
        return pools

    def _absorb_upward(
        self, pools: dict[str, AttributePool], edges: list[tuple[str, str]]
    ) -> None:
        """Move equivalence classes owned along an IS-A chain to the top owner.

        When a contained class shares an attribute class with its container
        (``Grad_student.Name`` with ``Student.Name``), the container absorbs
        the contained copy, producing a single derived attribute at the top
        and plain inheritance below — Screen 12's ``D_Name``.
        """
        owners_of: dict[int, list[str]] = {}
        for node_name in pools:
            for class_number in pools[node_name].class_numbers(self._registry):
                owners_of.setdefault(class_number, []).append(node_name)
        lattice = AncestorMap(edges)
        for class_number, owners in owners_of.items():
            if len(owners) < 2:
                continue
            for node_name in owners:
                # owners are in pool order, each node listed once
                ancestor_owners = [
                    other
                    for other in owners
                    if other != node_name and lattice.is_above(other, node_name)
                ]
                if not ancestor_owners:
                    continue
                top = self._topmost(ancestor_owners, lattice)
                for ref, attribute in pools[node_name].take_class(
                    self._registry, class_number
                ):
                    pools[top].add(ref, attribute)

    @staticmethod
    def _topmost(candidates: list[str], lattice: AncestorMap) -> str:
        """The candidate with no other candidate above it (first such wins)."""
        for candidate in candidates:
            if not any(
                lattice.is_above(other, candidate)
                for other in candidates
                if other != candidate
            ):
                return candidate
        return candidates[0]

    def _pull_up_to_derived_parents(
        self,
        pools: dict[str, AttributePool],
        edges: list[tuple[str, str]],
        result: IntegrationResult,
    ) -> None:
        """Optional ablation: move classes shared by all children into a D_ parent."""
        children_of: dict[str, list[str]] = {}
        for child, parent in edges:
            if result.nodes.get(parent) is not None and result.nodes[parent].is_derived:
                children_of.setdefault(parent, []).append(child)
        for parent, children in children_of.items():
            if len(children) < 2:
                continue
            shared = set.intersection(
                *(pools[child].class_numbers(self._registry) for child in children)
            )
            for class_number in sorted(shared):
                for child in children:
                    for ref, attribute in pools[child].take_class(
                        self._registry, class_number
                    ):
                        pools[parent].add(ref, attribute)

    def _merged_description(self, members: list[ObjectRef]) -> str:
        if not self._options.keep_component_descriptions:
            return ""
        parts = []
        for member in members:
            structure = self._registry.schema(member.schema).get(member.object_name)
            if structure.description:
                parts.append(structure.description)
        return " / ".join(dict.fromkeys(parts))

    # -- relationship sets ---------------------------------------------------------

    def _merge_relationship_sets(
        self,
        schema_a: Schema,
        schema_b: Schema,
        names: NamePool,
        result: IntegrationResult,
    ) -> None:
        refs = [
            ObjectRef(schema.name, relationship.name)
            for schema in (schema_a, schema_b)
            for relationship in schema.relationship_sets()
        ]
        chosen = set(refs)
        groups: DisjointSet[ObjectRef] = DisjointSet(refs)
        rel_net = self._relationship_network
        assertions = (
            []
            if rel_net is None
            else canonical_assertions(connecting_assertions(rel_net))
        )
        for assertion in assertions:
            if (
                assertion.relation is Relation.EQ
                and assertion.first in chosen
                and assertion.second in chosen
            ):
                groups.union(assertion.first, assertion.second)
        node_of: dict[ObjectRef, str] = {}
        for members in groups.classes():
            node_name = self._build_relationship_node(members, names, result)
            for member in members:
                node_of[member] = node_name
                result.object_mapping[member] = node_name
        self._derived_relationship_parents(
            assertions, chosen, node_of, names, result
        )

    def _build_relationship_node(
        self,
        members: list[ObjectRef],
        names: NamePool,
        result: IntegrationResult,
    ) -> str:
        participations = self._merged_participations(members, result)
        if len(members) == 1:
            node_name = names.claim(members[0].object_name)
            origin = "copy"
        else:
            subject = participations[0].object_name if participations else None
            node_name = names.claim(
                equivalent_name(
                    [member.object_name for member in members], subject=subject
                )
            )
            origin = "equivalent"
            result.note(
                f"equals merge (relationship): {node_name} <- "
                + ", ".join(str(member) for member in members)
            )
        pool = AttributePool(node_name)
        for member in members:
            schema = self._registry.schema(member.schema)
            structure = schema.get(member.object_name)
            for attribute in structure.attributes:
                pool.add(member.attribute(attribute.name), attribute)
        attributes, origins = merge_pool(pool, self._registry, self._options)
        result.schema.add(
            RelationshipSet(
                node_name,
                attributes,
                self._merged_description(members),
                participations=participations,
            )
        )
        result.nodes[node_name] = IntegratedNode(node_name, list(members), origin)
        for origin_record in origins:
            key = (node_name, origin_record.attribute)
            result.attribute_origins[key] = origin_record
            for component in origin_record.components:
                result.attribute_mapping[component] = key
        return node_name

    def _merged_participations(
        self, members: list[ObjectRef], result: IntegrationResult
    ) -> list[Participation]:
        """Re-point every leg at integrated nodes and merge matching legs."""
        merged: dict[tuple[str, str], Participation] = {}
        for member in members:
            schema = self._registry.schema(member.schema)
            relationship = schema.relationship_set(member.object_name)
            for leg in relationship.participations:
                target_ref = ObjectRef(member.schema, leg.object_name)
                target = result.object_mapping.get(target_ref)
                if target is None:
                    raise IntegrationError(
                        f"relationship {member} connects {target_ref}, which "
                        "was not integrated"
                    )
                key = (target, leg.role)
                if key in merged:
                    merged[key] = Participation(
                        target,
                        self._combine_cardinality(
                            merged[key].cardinality, leg.cardinality
                        ),
                        leg.role,
                    )
                else:
                    merged[key] = Participation(target, leg.cardinality, leg.role)
        return self._coalesce_isa_legs(merged, result)

    def _combine_cardinality(
        self, first: CardinalityConstraint, second: CardinalityConstraint
    ) -> CardinalityConstraint:
        if self._options.merge_cardinalities_loosely:
            return first.union(second)
        return first.intersect(second)

    def _coalesce_isa_legs(
        self,
        merged: dict[tuple[str, str], Participation],
        result: IntegrationResult,
    ) -> list[Participation]:
        """Fold legs whose targets are IS-A related onto the general class.

        When ``sc1.Majors`` connects ``Student`` and ``sc2.Majors`` connects
        ``Grad_student``, and ``Grad_student`` became a category of
        ``Student``, the merged ``E_Stud_Majo`` connects just ``Student`` —
        the grad students participate through inheritance (Figure 5 shows a
        binary relationship).
        """
        from repro.ecr.walk import superclass_closure

        legs = list(merged.values())
        final: list[Participation] = []
        for leg in legs:
            ancestors = set(
                superclass_closure(result.schema, leg.object_name)
            )
            absorber = next(
                (
                    other
                    for other in legs
                    if other is not leg
                    and other.role == leg.role
                    and other.object_name in ancestors
                ),
                None,
            )
            if absorber is None:
                final.append(leg)
        absorbed = [leg for leg in legs if leg not in final]
        for leg in absorbed:
            for index, kept in enumerate(final):
                ancestors = set(superclass_closure(result.schema, leg.object_name))
                if kept.role == leg.role and kept.object_name in ancestors:
                    final[index] = Participation(
                        kept.object_name,
                        self._combine_cardinality(
                            kept.cardinality, leg.cardinality
                        ),
                        kept.role,
                    )
                    break
        return final

    def _derived_relationship_parents(
        self,
        assertions: list[Assertion],
        chosen: set[ObjectRef],
        node_of: dict[ObjectRef, str],
        names: NamePool,
        result: IntegrationResult,
    ) -> None:
        """Record lattice edges and D_ parents for non-equals relationship
        assertions (the ECR model has no relationship categories, so the
        lattice lives on the result)."""
        seen_pairs: set[frozenset[str]] = set()
        for assertion in assertions:
            if assertion.first not in chosen or assertion.second not in chosen:
                continue
            node_a = node_of[assertion.first]
            node_b = node_of[assertion.second]
            if node_a == node_b:
                continue
            if assertion.relation is Relation.PP:
                result.relationship_lattice.append((node_a, node_b))
                continue
            if assertion.relation is Relation.PPI:
                result.relationship_lattice.append((node_b, node_a))
                continue
            # a connecting overlap/disjointness is integrable and decided
            if assertion.relation not in (Relation.PO, Relation.DR):
                continue
            pair = frozenset({node_a, node_b})
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            parent_name = names.claim(derived_name([node_a, node_b]))
            legs = self._union_legs(result.schema, node_a, node_b)
            result.schema.add(RelationshipSet(parent_name, participations=legs))
            result.nodes[parent_name] = IntegratedNode(
                parent_name,
                result.nodes[node_a].components + result.nodes[node_b].components,
                "derived-parent",
            )
            result.relationship_lattice.append((node_a, parent_name))
            result.relationship_lattice.append((node_b, parent_name))
            result.note(
                f"derived relationship parent: {parent_name} over "
                f"{node_a}, {node_b}"
            )

    @staticmethod
    def _union_legs(
        schema: Schema, node_a: str, node_b: str
    ) -> list[Participation]:
        merged: dict[tuple[str, str], Participation] = {}
        for node in (node_a, node_b):
            for leg in schema.relationship_set(node).participations:
                key = (leg.object_name, leg.role)
                if key in merged:
                    merged[key] = Participation(
                        leg.object_name,
                        merged[key].cardinality.union(leg.cardinality),
                        leg.role,
                    )
                else:
                    merged[key] = leg
        return list(merged.values())


def integrate_pair(
    registry: EquivalenceRegistry,
    network: AssertionNetwork,
    first_schema: str,
    second_schema: str,
    *,
    relationship_network: AssertionNetwork | None = None,
    options: IntegrationOptions | None = None,
    result_name: str = "integrated",
) -> IntegrationResult:
    """Convenience wrapper: integrate two registered schemas in one call.

    ``relationship_network``, ``options`` and ``result_name`` are
    keyword-only.
    """
    if options is None:
        options = IntegrationOptions()
    integrator = Integrator(registry, network, relationship_network, options)
    return integrator.integrate(first_schema, second_schema, result_name)
