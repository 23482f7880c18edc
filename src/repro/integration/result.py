"""The integration result: integrated schema plus full provenance.

The browse screens (10-12) need to answer, for any element of the
integrated schema, *where it came from*: which original object classes an
``E_``/``D_`` class merges, and which original attributes a ``D_``
attribute is composed of (the Component Attribute Screens).  The mappings
of Phase 4 need the same information in the other direction.  Both live
here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ecr.attributes import AttributeRef
from repro.ecr.schema import ObjectRef, Schema
from repro.errors import IntegrationError


@dataclass(frozen=True)
class AttributeOrigin:
    """Provenance of one integrated attribute (Screen 12 content)."""

    node: str
    attribute: str
    components: tuple[AttributeRef, ...]

    @property
    def is_derived(self) -> bool:
        """Whether the attribute merges more than one component."""
        return len(self.components) > 1

    def __str__(self) -> str:
        sources = ", ".join(str(component) for component in self.components)
        return f"{self.node}.{self.attribute} <- {sources}"


@dataclass
class IntegratedNode:
    """Provenance of one integrated object class or relationship set."""

    name: str
    components: list[ObjectRef] = field(default_factory=list)
    #: 'copy' | 'equivalent' | 'derived-parent'
    origin: str = "copy"

    @property
    def is_equivalent(self) -> bool:
        return self.origin == "equivalent"

    @property
    def is_derived(self) -> bool:
        return self.origin == "derived-parent"

    def __str__(self) -> str:
        sources = ", ".join(str(component) for component in self.components)
        return f"{self.name} [{self.origin}] <- {sources}"


@dataclass
class IntegrationResult:
    """Everything Phase 4 produces for one pair (or chain) of schemas."""

    schema: Schema
    #: component object/relationship ref -> integrated structure name
    object_mapping: dict[ObjectRef, str] = field(default_factory=dict)
    #: component attribute ref -> (integrated structure, attribute name)
    attribute_mapping: dict[AttributeRef, tuple[str, str]] = field(
        default_factory=dict
    )
    #: integrated structure name -> provenance record
    nodes: dict[str, IntegratedNode] = field(default_factory=dict)
    #: (integrated structure, attribute) -> provenance record
    attribute_origins: dict[tuple[str, str], AttributeOrigin] = field(
        default_factory=dict
    )
    #: derived-parent lattice edges among relationship sets (child, parent);
    #: object-class lattice edges live in the schema itself as categories
    relationship_lattice: list[tuple[str, str]] = field(default_factory=list)
    #: human-readable action log (the Phase 1-4 trace of Figure 1)
    log: list[str] = field(default_factory=list)
    #: the pair's cluster partition, as member sets (Phase 4's first
    #: step); derived like the log, so never compared or serialised —
    #: schema evolution diffs it to report how many clusters an edit moved
    clusters: tuple[frozenset[ObjectRef], ...] = field(
        default=(), compare=False, repr=False
    )

    # -- provenance queries ----------------------------------------------------

    def node_for(self, ref: ObjectRef | str) -> str:
        """Integrated structure holding a component object class."""
        if isinstance(ref, str):
            ref = ObjectRef.parse(ref)
        try:
            return self.object_mapping[ref]
        except KeyError:
            raise IntegrationError(
                f"{ref} was not part of this integration"
            ) from None

    def attribute_for(self, ref: AttributeRef | str) -> tuple[str, str]:
        """Integrated (structure, attribute) holding a component attribute."""
        if isinstance(ref, str):
            ref = AttributeRef.parse(ref)
        try:
            return self.attribute_mapping[ref]
        except KeyError:
            raise IntegrationError(
                f"attribute {ref} was not part of this integration"
            ) from None

    def components_of(self, node_name: str) -> list[ObjectRef]:
        """Original object classes behind an integrated structure."""
        try:
            return list(self.nodes[node_name].components)
        except KeyError:
            raise IntegrationError(
                f"{node_name!r} is not in the integrated schema"
            ) from None

    def component_attributes(
        self, node_name: str, attribute_name: str
    ) -> list[AttributeRef]:
        """Screen 12: the component attributes of an integrated attribute."""
        try:
            origin = self.attribute_origins[(node_name, attribute_name)]
        except KeyError:
            raise IntegrationError(
                f"no attribute {node_name}.{attribute_name} in the result"
            ) from None
        return list(origin.components)

    def derived_parent_nodes(self) -> list[IntegratedNode]:
        """All ``D_`` derived parents, in creation order."""
        return [node for node in self.nodes.values() if node.is_derived]

    def equivalent_nodes(self) -> list[IntegratedNode]:
        """All ``E_`` equivalent merges, in creation order."""
        return [node for node in self.nodes.values() if node.is_equivalent]

    def derived_attributes(self) -> list[AttributeOrigin]:
        """All attributes merged from more than one component."""
        return [
            origin
            for origin in self.attribute_origins.values()
            if origin.is_derived
        ]

    def note(self, message: str) -> None:
        """Append a line to the integration log."""
        self.log.append(message)

    def summary(self) -> str:
        """One-paragraph summary used by examples and the experiment record."""
        return (
            f"{self.schema.summary()}; "
            f"{len(self.equivalent_nodes())} equivalent merges, "
            f"{len(self.derived_parent_nodes())} derived parents, "
            f"{len(self.derived_attributes())} derived attributes"
        )
