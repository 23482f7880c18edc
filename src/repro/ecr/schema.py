"""The ECR schema container.

A :class:`Schema` holds the entity sets, categories and relationship sets of
one component schema (or of the integrated schema).  It preserves insertion
order — the tool's screens list structures in the order the DDA entered them
— and enforces a single flat namespace across all structure kinds, matching
Screen 3 where every structure row has one name and a type column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.ecr.attributes import Attribute, AttributeRef, check_identifier
from repro.ecr.objects import Category, EntitySet, ObjectClass
from repro.ecr.relationships import RelationshipSet
from repro.errors import DuplicateNameError, SchemaError, UnknownNameError


@dataclass(frozen=True, order=True, slots=True)
class ObjectRef:
    """Fully qualified reference to a structure: ``schema.object``.

    This is the unit assertions are made over — Screen 8 displays exactly
    these pairs (``sc1.Student``, ``sc2.Grad_student``).
    """

    schema: str
    object_name: str

    def __str__(self) -> str:
        return f"{self.schema}.{self.object_name}"

    @classmethod
    def parse(cls, text: str) -> "ObjectRef":
        """Parse ``"sc1.Student"`` into an :class:`ObjectRef`."""
        parts = text.split(".")
        if len(parts) != 2 or not all(parts):
            raise SchemaError(
                f"object reference must be schema.object, got {text!r}"
            )
        return cls(parts[0], parts[1])

    def attribute(self, name: str) -> AttributeRef:
        """Qualify an attribute of this object."""
        return AttributeRef(self.schema, self.object_name, name)


@dataclass
class Schema:
    """An ECR schema: a named collection of structures.

    All structures (entity sets, categories, relationship sets) share one
    namespace.  Dedicated accessors expose each kind in insertion order.
    """

    name: str
    description: str = ""
    _structures: dict[str, ObjectClass] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_identifier(self.name, "schema")

    # -- membership ----------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._structures

    def __len__(self) -> int:
        return len(self._structures)

    def __iter__(self) -> Iterator[ObjectClass]:
        return iter(self._structures.values())

    def structure_names(self) -> list[str]:
        """All structure names in insertion order."""
        return list(self._structures)

    def get(self, name: str) -> ObjectClass:
        """Fetch any structure by name.

        Raises
        ------
        UnknownNameError
            If the schema has no structure of that name.
        """
        try:
            return self._structures[name]
        except KeyError:
            raise UnknownNameError("structure", name, self.name) from None

    def entity_sets(self) -> list[EntitySet]:
        """All entity sets, in insertion order."""
        return [s for s in self._structures.values() if isinstance(s, EntitySet)]

    def categories(self) -> list[Category]:
        """All categories, in insertion order."""
        return [s for s in self._structures.values() if isinstance(s, Category)]

    def relationship_sets(self) -> list[RelationshipSet]:
        """All relationship sets, in insertion order."""
        return [
            s for s in self._structures.values() if isinstance(s, RelationshipSet)
        ]

    def object_classes(self) -> list[ObjectClass]:
        """Entity sets and categories (the things assertions range over)."""
        return [
            s
            for s in self._structures.values()
            if not isinstance(s, RelationshipSet)
        ]

    def entity_set(self, name: str) -> EntitySet:
        """Fetch an entity set by name, checking the kind."""
        structure = self.get(name)
        if not isinstance(structure, EntitySet):
            raise UnknownNameError("entity set", name, self.name)
        return structure

    def category(self, name: str) -> Category:
        """Fetch a category by name, checking the kind."""
        structure = self.get(name)
        if not isinstance(structure, Category):
            raise UnknownNameError("category", name, self.name)
        return structure

    def relationship_set(self, name: str) -> RelationshipSet:
        """Fetch a relationship set by name, checking the kind."""
        structure = self.get(name)
        if not isinstance(structure, RelationshipSet):
            raise UnknownNameError("relationship set", name, self.name)
        return structure

    def object_class(self, name: str) -> ObjectClass:
        """Fetch an entity set or category by name (not a relationship set)."""
        structure = self.get(name)
        if isinstance(structure, RelationshipSet):
            raise UnknownNameError("object class", name, self.name)
        return structure

    # -- mutation --------------------------------------------------------------

    def add(self, structure: ObjectClass) -> ObjectClass:
        """Add a structure of any kind, enforcing the shared namespace."""
        if structure.name in self._structures:
            raise DuplicateNameError(
                structure.kind_label(), structure.name, self.name
            )
        self._structures[structure.name] = structure
        return structure

    def add_all(self, structures: Iterable[ObjectClass]) -> None:
        """Add several structures; fails atomically before any insertion."""
        pending = list(structures)
        names = [structure.name for structure in pending]
        duplicates = set(names) & set(self._structures)
        if duplicates or len(set(names)) != len(names):
            clash = sorted(duplicates) or sorted(
                name for name in names if names.count(name) > 1
            )
            raise DuplicateNameError("structure", clash[0], self.name)
        for structure in pending:
            self._structures[structure.name] = structure

    def remove(self, name: str) -> ObjectClass:
        """Remove and return the structure called ``name``.

        Removal is refused while other structures still refer to it (category
        parents or relationship participations), so a schema can never hold
        dangling references.
        """
        removed = self.get(name)
        dependents = self._dependents(name)
        if dependents:
            raise SchemaError(
                f"cannot remove {name!r} from schema {self.name!r}: "
                f"still referenced by {', '.join(sorted(dependents))}"
            )
        del self._structures[name]
        return removed

    def position(self, name: str) -> int:
        """The structure's index in the schema's declaration order."""
        self.get(name)
        return list(self._structures).index(name)

    def move(self, name: str, position: int) -> None:
        """Reorder one structure to ``position`` in declaration order.

        Declaration order is semantically inert but part of the canonical
        JSON form, so edits that restore a dropped structure use this to
        reproduce the original schema bytes (and fingerprint) exactly.
        """
        self.get(name)
        names = [existing for existing in self._structures if existing != name]
        position = max(0, min(position, len(names)))
        names.insert(position, name)
        self._structures = {key: self._structures[key] for key in names}

    def rename(self, old_name: str, new_name: str) -> None:
        """Rename a structure, updating every reference to it."""
        structure = self.get(old_name)
        if new_name == old_name:
            return
        if new_name in self._structures:
            raise DuplicateNameError("structure", new_name, self.name)
        check_identifier(new_name, structure.kind_label())
        rebuilt: dict[str, ObjectClass] = {}
        for name, existing in self._structures.items():
            rebuilt[new_name if name == old_name else name] = existing
        structure.name = new_name
        self._structures = rebuilt
        for category in self.categories():
            if old_name in category.parents:
                category.parents[category.parents.index(old_name)] = new_name
        for relationship in self.relationship_sets():
            relationship.replace_participant(old_name, new_name)

    def _dependents(self, name: str) -> set[str]:
        """Structures that reference ``name`` as parent or participant."""
        dependents: set[str] = set()
        for category in self.categories():
            if name in category.parents and category.name != name:
                dependents.add(category.name)
        for relationship in self.relationship_sets():
            if relationship.connects(name):
                dependents.add(relationship.name)
        return dependents

    # -- references ---------------------------------------------------------

    def ref(self, object_name: str) -> ObjectRef:
        """Qualified reference to a structure of this schema (checked)."""
        self.get(object_name)
        return ObjectRef(self.name, object_name)

    def attribute_refs(self, object_name: str) -> list[AttributeRef]:
        """Qualified references to all attributes of one structure."""
        structure = self.get(object_name)
        return [
            AttributeRef(self.name, object_name, attribute.name)
            for attribute in structure.attributes
        ]

    def all_attribute_refs(self) -> list[AttributeRef]:
        """Qualified references to every attribute in the schema."""
        refs: list[AttributeRef] = []
        for structure in self:
            refs.extend(self.attribute_refs(structure.name))
        return refs

    def resolve_attribute(self, ref: AttributeRef) -> Attribute:
        """Dereference an :class:`AttributeRef` belonging to this schema."""
        if ref.schema != self.name:
            raise UnknownNameError("schema", ref.schema, self.name)
        return self.get(ref.object_name).attribute(ref.attribute)

    # -- statistics -----------------------------------------------------------

    def attribute_count(self) -> int:
        """Total number of attributes across all structures."""
        return sum(len(structure.attributes) for structure in self)

    def summary(self) -> str:
        """One-line size summary used by the tool's status areas."""
        return (
            f"schema {self.name}: {len(self.entity_sets())} entities, "
            f"{len(self.categories())} categories, "
            f"{len(self.relationship_sets())} relationships, "
            f"{self.attribute_count()} attributes"
        )

    def copy(self, new_name: str | None = None) -> "Schema":
        """Deep-copy the schema, optionally under a new name."""
        from repro.ecr.json_io import schema_from_dict, schema_to_dict

        clone = schema_from_dict(schema_to_dict(self))
        if new_name is not None:
            check_identifier(new_name, "schema")
            clone.name = new_name
        return clone

    def __str__(self) -> str:
        return self.summary()
