"""The typed schema-edit vocabulary of the evolution subsystem.

A :class:`SchemaEdit` is a single declarative change to one component
schema: add/drop/rename an attribute, add/drop an object class, add/drop/
retarget a relationship set, or change a key flag / cardinality constraint.
Edits are the *only* supported mutation entry point for registered schemas
(the ad-hoc in-place edit path ``refresh_after_edit`` has been removed):
they validate before mutating, so a failed edit leaves the schema exactly
as it was, and :meth:`SchemaEdit.apply` returns an :class:`EditDelta`
describing precisely what changed — which attribute refs appeared,
vanished or moved, and whether the schema's structure membership changed —
plus the inverse edit that undoes it.

The payload form (:meth:`SchemaEdit.to_payload` / :func:`edit_from_payload`)
is the wire/event format: it is what ``evolution.apply_edit`` kernel events
carry, what the service's ``POST .../edits`` endpoint accepts, and what the
audit replay re-drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, ClassVar

from repro.ecr.attributes import Attribute, AttributeRef, check_identifier
from repro.ecr.json_io import (
    attribute_from_dict,
    attribute_to_dict,
    participation_from_dict,
    participation_to_dict,
    structure_from_dict,
    structure_to_dict,
)
from repro.ecr.objects import Category, EntitySet
from repro.ecr.relationships import (
    CardinalityConstraint,
    Participation,
    RelationshipSet,
)
from repro.ecr.schema import Schema
from repro.errors import DuplicateNameError, SchemaError, UnknownNameError


@dataclass(frozen=True)
class EditDelta:
    """What one applied edit changed, in registry/network terms.

    ``added_refs``/``dropped_refs`` are unqualified ``(object, attribute)``
    name pairs (the session qualifies them with the schema name);
    ``renamed_refs`` pairs old with new.  ``added_objects`` /
    ``dropped_objects`` list object classes that joined or left the
    assertion network; relationship sets are listed separately because
    they live in the relationship network.  ``touched_objects`` are
    structures whose definition changed in place without any attribute
    delta.  ``structural`` marks changes to the schema's structure
    membership, which force row/column re-derivation in the matrix views.
    """

    inverse: "SchemaEdit"
    added_refs: tuple[tuple[str, str], ...] = ()
    dropped_refs: tuple[tuple[str, str], ...] = ()
    renamed_refs: tuple[tuple[str, str, str], ...] = ()  # (object, old, new)
    added_objects: tuple[str, ...] = ()
    dropped_objects: tuple[str, ...] = ()
    added_relationships: tuple[str, ...] = ()
    dropped_relationships: tuple[str, ...] = ()
    touched_objects: tuple[str, ...] = ()
    #: objects whose implicit (category-structure) assertions must be
    #: re-derived because their parent connections changed
    reseeded_objects: tuple[str, ...] = ()
    structural: bool = False

    def all_touched(self) -> tuple[str, ...]:
        """Every structure name the edit affected, in a stable order."""
        names: list[str] = []
        for name in (
            *self.touched_objects,
            *self.added_objects,
            *self.dropped_objects,
            *self.added_relationships,
            *self.dropped_relationships,
            *(owner for owner, _ in self.added_refs),
            *(owner for owner, _ in self.dropped_refs),
            *(owner for owner, _, _ in self.renamed_refs),
        ):
            if name not in names:
                names.append(name)
        return tuple(names)


@dataclass(frozen=True)
class SchemaEdit:
    """Base class of the edit vocabulary; subclasses define one verb each."""

    kind: ClassVar[str] = ""

    def apply(self, schema: Schema) -> EditDelta:
        """Validate against ``schema``, then mutate it; return the delta.

        Raises a :class:`~repro.errors.ReproError` subclass *before* any
        mutation when the edit is invalid, so a failed apply is a no-op.
        """
        raise NotImplementedError

    def to_payload(self) -> dict[str, Any]:
        raise NotImplementedError

    def describe(self) -> str:
        """One-line human description for screens and the audit log."""
        raise NotImplementedError


@dataclass(frozen=True)
class AddAttribute(SchemaEdit):
    """Add an attribute to an object class or relationship set."""

    kind: ClassVar[str] = "add_attribute"
    object_name: str = ""
    attribute: Attribute = field(default_factory=lambda: Attribute("attr"))

    def apply(self, schema: Schema) -> EditDelta:
        structure = schema.get(self.object_name)
        if structure.has_attribute(self.attribute.name):
            raise DuplicateNameError(
                "attribute", self.attribute.name, self.object_name
            )
        structure.add_attribute(self.attribute)
        return EditDelta(
            inverse=DropAttribute(self.object_name, self.attribute.name),
            added_refs=((self.object_name, self.attribute.name),),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "object": self.object_name,
            "attribute": attribute_to_dict(self.attribute),
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "AddAttribute":
        return cls(data["object"], attribute_from_dict(data["attribute"]))

    def describe(self) -> str:
        return f"add attribute {self.attribute.name} to {self.object_name}"


@dataclass(frozen=True)
class DropAttribute(SchemaEdit):
    """Remove an attribute from an object class or relationship set."""

    kind: ClassVar[str] = "drop_attribute"
    object_name: str = ""
    attribute_name: str = ""

    def apply(self, schema: Schema) -> EditDelta:
        structure = schema.get(self.object_name)
        removed = structure.attribute(self.attribute_name)  # validates
        structure.remove_attribute(self.attribute_name)
        return EditDelta(
            inverse=AddAttribute(self.object_name, removed),
            dropped_refs=((self.object_name, self.attribute_name),),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "object": self.object_name,
            "attribute": self.attribute_name,
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "DropAttribute":
        return cls(data["object"], data["attribute"])

    def describe(self) -> str:
        return f"drop attribute {self.attribute_name} from {self.object_name}"


@dataclass(frozen=True)
class RenameAttribute(SchemaEdit):
    """Rename an attribute, keeping its equivalence-class membership."""

    kind: ClassVar[str] = "rename_attribute"
    object_name: str = ""
    old_name: str = ""
    new_name: str = ""

    def apply(self, schema: Schema) -> EditDelta:
        structure = schema.get(self.object_name)
        attribute = structure.attribute(self.old_name)  # validates
        if self.new_name == self.old_name:
            raise SchemaError(
                f"rename of {self.old_name!r} must change the name"
            )
        if structure.has_attribute(self.new_name):
            raise DuplicateNameError(
                "attribute", self.new_name, self.object_name
            )
        check_identifier(self.new_name, "attribute")
        index = structure.attributes.index(attribute)
        structure.attributes[index] = attribute.renamed(self.new_name)
        return EditDelta(
            inverse=RenameAttribute(
                self.object_name, self.new_name, self.old_name
            ),
            renamed_refs=((self.object_name, self.old_name, self.new_name),),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "object": self.object_name,
            "old": self.old_name,
            "new": self.new_name,
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "RenameAttribute":
        return cls(data["object"], data["old"], data["new"])

    def describe(self) -> str:
        return (
            f"rename attribute {self.object_name}.{self.old_name} "
            f"to {self.new_name}"
        )


def _class_edit_delta(
    inverse: SchemaEdit, structure: Any, *, added: bool
) -> EditDelta:
    refs = tuple(
        (structure.name, attribute.name) for attribute in structure.attributes
    )
    is_relationship = isinstance(structure, RelationshipSet)
    return EditDelta(
        inverse=inverse,
        added_refs=refs if added else (),
        dropped_refs=() if added else refs,
        added_objects=(structure.name,) if added and not is_relationship else (),
        dropped_objects=(structure.name,)
        if not added and not is_relationship
        else (),
        added_relationships=(structure.name,) if added and is_relationship else (),
        dropped_relationships=(structure.name,)
        if not added and is_relationship
        else (),
        structural=True,
    )


@dataclass(frozen=True)
class AddClass(SchemaEdit):
    """Add an entity set or category, given as a structure payload.

    ``position`` pins the structure's index in the schema's declaration
    order; inverse edits of drops carry it so undo reproduces the original
    schema bytes (declaration order is part of the canonical JSON form).
    """

    kind: ClassVar[str] = "add_class"
    structure: dict = field(default_factory=dict)
    position: int | None = None

    def _build(self) -> Any:
        built = structure_from_dict(self.structure)
        if isinstance(built, RelationshipSet):
            raise SchemaError(
                f"{self.kind} cannot add a relationship set; "
                "use add_relationship"
            )
        return built

    def apply(self, schema: Schema) -> EditDelta:
        built = self._build()
        if built.name in schema:
            raise DuplicateNameError(
                built.kind_label(), built.name, schema.name
            )
        if isinstance(built, Category):
            for parent in built.parents:
                schema.get(parent)  # validates the parent exists
        schema.add(built)
        if self.position is not None:
            schema.move(built.name, self.position)
        return _class_edit_delta(DropClass(built.name), built, added=True)

    def to_payload(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind, "structure": dict(self.structure)
        }
        if self.position is not None:
            data["position"] = self.position
        return data

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "AddClass":
        return cls(dict(data["structure"]), data.get("position"))

    def describe(self) -> str:
        name = self.structure.get("name", "?")
        return f"add class {name}"


@dataclass(frozen=True)
class DropClass(SchemaEdit):
    """Drop an object class.

    Without ``cascade``, dropping a class that still carries specified
    (DDA) assertions is a *conflicting edit* — the session refuses it with
    a :class:`~repro.errors.ConsistencyFailure` listing those assertions.
    With ``cascade``, the assertions are retracted as part of the repair.
    Either way the class must not be referenced by other structures
    (category parents, relationship legs); the schema refuses that itself.
    """

    kind: ClassVar[str] = "drop_class"
    object_name: str = ""
    cascade: bool = False

    def apply(self, schema: Schema) -> EditDelta:
        structure = schema.get(self.object_name)
        if isinstance(structure, RelationshipSet):
            raise SchemaError(
                f"{self.object_name!r} is a relationship set; "
                "use drop_relationship"
            )
        position = schema.position(self.object_name)
        removed = schema.remove(self.object_name)  # refuses dangling refs
        return _class_edit_delta(
            AddClass(structure_to_dict(removed), position),
            removed,
            added=False,
        )

    def to_payload(self) -> dict[str, Any]:
        data: dict[str, Any] = {"kind": self.kind, "object": self.object_name}
        if self.cascade:
            data["cascade"] = True
        return data

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "DropClass":
        return cls(data["object"], bool(data.get("cascade", False)))

    def describe(self) -> str:
        suffix = " (cascade)" if self.cascade else ""
        return f"drop class {self.object_name}{suffix}"


@dataclass(frozen=True)
class AddRelationship(SchemaEdit):
    """Add a relationship set, given as a structure payload.

    ``position`` works as for :class:`AddClass`.
    """

    kind: ClassVar[str] = "add_relationship"
    structure: dict = field(default_factory=dict)
    position: int | None = None

    def _build(self) -> RelationshipSet:
        built = structure_from_dict(self.structure)
        if not isinstance(built, RelationshipSet):
            raise SchemaError(
                f"{self.kind} requires a relationship-set structure "
                f"(kind 'r'), got {self.structure.get('kind')!r}"
            )
        return built

    def apply(self, schema: Schema) -> EditDelta:
        built = self._build()
        if built.name in schema:
            raise DuplicateNameError(
                built.kind_label(), built.name, schema.name
            )
        for participation in built.participations:
            schema.object_class(participation.object_name)  # validates
        schema.add(built)
        if self.position is not None:
            schema.move(built.name, self.position)
        return _class_edit_delta(
            DropRelationship(built.name), built, added=True
        )

    def to_payload(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind, "structure": dict(self.structure)
        }
        if self.position is not None:
            data["position"] = self.position
        return data

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "AddRelationship":
        return cls(dict(data["structure"]), data.get("position"))

    def describe(self) -> str:
        name = self.structure.get("name", "?")
        return f"add relationship {name}"


@dataclass(frozen=True)
class DropRelationship(SchemaEdit):
    """Drop a relationship set (see :class:`DropClass` for ``cascade``)."""

    kind: ClassVar[str] = "drop_relationship"
    relationship: str = ""
    cascade: bool = False

    def apply(self, schema: Schema) -> EditDelta:
        removed = schema.relationship_set(self.relationship)  # validates kind
        position = schema.position(self.relationship)
        schema.remove(self.relationship)
        return _class_edit_delta(
            AddRelationship(structure_to_dict(removed), position),
            removed,
            added=False,
        )

    def to_payload(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind,
            "relationship": self.relationship,
        }
        if self.cascade:
            data["cascade"] = True
        return data

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "DropRelationship":
        return cls(data["relationship"], bool(data.get("cascade", False)))

    def describe(self) -> str:
        suffix = " (cascade)" if self.cascade else ""
        return f"drop relationship {self.relationship}{suffix}"


@dataclass(frozen=True)
class RetargetRelationship(SchemaEdit):
    """Re-point every leg of a relationship from one class to another."""

    kind: ClassVar[str] = "retarget_relationship"
    relationship: str = ""
    old_target: str = ""
    new_target: str = ""

    def apply(self, schema: Schema) -> EditDelta:
        relationship = schema.relationship_set(self.relationship)
        if not relationship.connects(self.old_target):
            raise UnknownNameError(
                "participation", self.old_target, self.relationship
            )
        schema.object_class(self.new_target)  # validates the new target
        taken = {
            leg.label
            for leg in relationship.participations
            if leg.object_name != self.old_target
        }
        for leg in relationship.participations:
            if leg.object_name == self.old_target and not leg.role:
                if self.new_target in taken:
                    raise DuplicateNameError(
                        "participation", self.new_target, self.relationship
                    )
        relationship.replace_participant(self.old_target, self.new_target)
        return EditDelta(
            inverse=RetargetRelationship(
                self.relationship, self.new_target, self.old_target
            ),
            touched_objects=(self.relationship,),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "relationship": self.relationship,
            "old": self.old_target,
            "new": self.new_target,
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "RetargetRelationship":
        return cls(data["relationship"], data["old"], data["new"])

    def describe(self) -> str:
        return (
            f"retarget {self.relationship}: "
            f"{self.old_target} -> {self.new_target}"
        )


@dataclass(frozen=True)
class ChangeKey(SchemaEdit):
    """Set or clear the key flag of one attribute."""

    kind: ClassVar[str] = "change_key"
    object_name: str = ""
    attribute_name: str = ""
    is_key: bool = True

    def apply(self, schema: Schema) -> EditDelta:
        structure = schema.get(self.object_name)
        attribute = structure.attribute(self.attribute_name)  # validates
        previous = attribute.is_key
        index = structure.attributes.index(attribute)
        structure.attributes[index] = replace(attribute, is_key=self.is_key)
        return EditDelta(
            inverse=ChangeKey(
                self.object_name, self.attribute_name, previous
            ),
            touched_objects=(self.object_name,),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "object": self.object_name,
            "attribute": self.attribute_name,
            "is_key": self.is_key,
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "ChangeKey":
        return cls(data["object"], data["attribute"], bool(data["is_key"]))

    def describe(self) -> str:
        verb = "set" if self.is_key else "clear"
        return (
            f"{verb} key flag on {self.object_name}.{self.attribute_name}"
        )


@dataclass(frozen=True)
class ChangeCardinality(SchemaEdit):
    """Replace the cardinality constraint of one relationship leg."""

    kind: ClassVar[str] = "change_cardinality"
    relationship: str = ""
    leg_label: str = ""
    cardinality: CardinalityConstraint = field(
        default_factory=CardinalityConstraint
    )

    def apply(self, schema: Schema) -> EditDelta:
        relationship = schema.relationship_set(self.relationship)
        leg = relationship.participation_for(self.leg_label)  # validates
        index = relationship.participations.index(leg)
        relationship.participations[index] = Participation(
            leg.object_name, self.cardinality, leg.role
        )
        return EditDelta(
            inverse=ChangeCardinality(
                self.relationship, self.leg_label, leg.cardinality
            ),
            touched_objects=(self.relationship,),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "relationship": self.relationship,
            "leg": self.leg_label,
            "cardinality": self.cardinality.spelled(),
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "ChangeCardinality":
        return cls(
            data["relationship"],
            data["leg"],
            CardinalityConstraint.parse(data["cardinality"]),
        )

    def describe(self) -> str:
        return (
            f"change cardinality of {self.relationship}.{self.leg_label} "
            f"to {self.cardinality.spelled()}"
        )


@dataclass(frozen=True)
class SetCategoryParents(SchemaEdit):
    """Replace a category's parent connections.

    The implicit category-structure containment assertions the networks
    derive from single-parent categories are re-derived as part of the
    repair (see :attr:`EditDelta.reseeded_objects`).
    """

    kind: ClassVar[str] = "set_category_parents"
    object_name: str = ""
    parents: tuple[str, ...] = ()

    def apply(self, schema: Schema) -> EditDelta:
        category = schema.category(self.object_name)  # validates kind
        parents = list(self.parents)
        if not parents:
            raise SchemaError(
                f"category {self.object_name!r} must keep at least one parent"
            )
        if len(set(parents)) != len(parents):
            raise DuplicateNameError(
                "parent", sorted(parents)[0], self.object_name
            )
        for parent in parents:
            if parent == self.object_name:
                raise SchemaError(
                    f"category {self.object_name!r} cannot be its own parent"
                )
            schema.object_class(parent)  # validates each parent exists
        previous = tuple(category.parents)
        if tuple(parents) == previous:
            raise SchemaError(
                f"parents of {self.object_name!r} are already "
                f"{', '.join(previous)}"
            )
        category.parents[:] = parents
        return EditDelta(
            inverse=SetCategoryParents(self.object_name, previous),
            touched_objects=(self.object_name,),
            reseeded_objects=(self.object_name,),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "object": self.object_name,
            "parents": list(self.parents),
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "SetCategoryParents":
        return cls(data["object"], tuple(data["parents"]))

    def describe(self) -> str:
        return (
            f"set parents of {self.object_name} to "
            f"{', '.join(self.parents)}"
        )


@dataclass(frozen=True)
class AddParticipation(SchemaEdit):
    """Attach one leg to a relationship set.

    ``position`` pins the leg's index (inverse edits of leg drops carry
    it so undo reproduces the original schema bytes).
    """

    kind: ClassVar[str] = "add_participation"
    relationship: str = ""
    participation: Participation = field(
        default_factory=lambda: Participation("object")
    )
    position: int | None = None

    def apply(self, schema: Schema) -> EditDelta:
        relationship = schema.relationship_set(self.relationship)
        schema.object_class(self.participation.object_name)  # validates
        relationship.add_participation(self.participation)  # label-unique
        if self.position is not None:
            legs = relationship.participations
            legs.remove(self.participation)
            legs.insert(
                max(0, min(self.position, len(legs))), self.participation
            )
        return EditDelta(
            inverse=DropParticipation(
                self.relationship, self.participation.label
            ),
            touched_objects=(self.relationship,),
        )

    def to_payload(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "kind": self.kind,
            "relationship": self.relationship,
            "participation": participation_to_dict(self.participation),
        }
        if self.position is not None:
            data["position"] = self.position
        return data

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "AddParticipation":
        return cls(
            data["relationship"],
            participation_from_dict(data["participation"]),
            data.get("position"),
        )

    def describe(self) -> str:
        return (
            f"connect {self.participation.object_name} to "
            f"{self.relationship}"
        )


@dataclass(frozen=True)
class DropParticipation(SchemaEdit):
    """Detach one leg (by role name, or object name when unnamed)."""

    kind: ClassVar[str] = "drop_participation"
    relationship: str = ""
    leg_label: str = ""

    def apply(self, schema: Schema) -> EditDelta:
        relationship = schema.relationship_set(self.relationship)
        leg = relationship.participation_for(self.leg_label)  # validates
        position = relationship.participations.index(leg)
        relationship.remove_participation(self.leg_label)
        return EditDelta(
            inverse=AddParticipation(self.relationship, leg, position),
            touched_objects=(self.relationship,),
        )

    def to_payload(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "relationship": self.relationship,
            "leg": self.leg_label,
        }

    @classmethod
    def from_payload(cls, data: dict[str, Any]) -> "DropParticipation":
        return cls(data["relationship"], data["leg"])

    def describe(self) -> str:
        return f"disconnect {self.leg_label} from {self.relationship}"


#: every edit verb, keyed by its wire ``kind``
EDIT_KINDS: dict[str, type[SchemaEdit]] = {
    edit_class.kind: edit_class
    for edit_class in (
        AddAttribute,
        DropAttribute,
        RenameAttribute,
        AddClass,
        DropClass,
        AddRelationship,
        DropRelationship,
        RetargetRelationship,
        ChangeKey,
        ChangeCardinality,
        SetCategoryParents,
        AddParticipation,
        DropParticipation,
    )
}


def edit_from_payload(data: dict[str, Any]) -> SchemaEdit:
    """Parse the wire/event payload form back into a typed edit."""
    if not isinstance(data, dict):
        raise SchemaError(f"schema edit must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    edit_class = EDIT_KINDS.get(kind)
    if edit_class is None:
        known = ", ".join(sorted(EDIT_KINDS))
        raise SchemaError(f"unknown schema-edit kind {kind!r} (known: {known})")
    try:
        return edit_class.from_payload(data)
    except KeyError as exc:
        raise SchemaError(
            f"schema edit {kind!r} payload missing key {exc}"
        ) from exc


__all__ = [
    "AddAttribute",
    "AddClass",
    "AddParticipation",
    "AddRelationship",
    "ChangeCardinality",
    "ChangeKey",
    "DropAttribute",
    "DropClass",
    "DropParticipation",
    "DropRelationship",
    "EDIT_KINDS",
    "EditDelta",
    "RenameAttribute",
    "RetargetRelationship",
    "SchemaEdit",
    "SetCategoryParents",
    "edit_from_payload",
]
