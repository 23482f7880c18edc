"""Traversal utilities over the IS-A structure of an ECR schema.

Categories define a directed acyclic graph: each category points at its
parent object classes.  Integration builds and browses these lattices, and
attribute inheritance follows them, so the traversals live in one place.
"""

from __future__ import annotations

from typing import Iterable

from repro.ecr.attributes import Attribute
from repro.ecr.objects import Category
from repro.ecr.schema import Schema
from repro.errors import SchemaError


def direct_parents(schema: Schema, name: str) -> list[str]:
    """Parent object classes of ``name`` (empty for entity sets)."""
    structure = schema.object_class(name)
    if isinstance(structure, Category):
        return list(structure.parents)
    return []


def direct_children(schema: Schema, name: str) -> list[str]:
    """Categories directly defined over ``name``, in insertion order."""
    schema.object_class(name)
    return [
        category.name
        for category in schema.categories()
        if name in category.parents
    ]


def superclass_closure(schema: Schema, name: str) -> list[str]:
    """All ancestors of ``name`` following parent links, nearest first.

    Raises
    ------
    SchemaError
        If the parent links contain a cycle (a malformed schema).
    """
    seen: list[str] = []
    visited = {name}
    frontier = list(direct_parents(schema, name))
    while frontier:
        current = frontier.pop(0)
        if current == name:
            raise SchemaError(f"IS-A cycle through {name!r} in {schema.name!r}")
        if current in visited:
            continue
        visited.add(current)
        seen.append(current)
        frontier.extend(direct_parents(schema, current))
    return seen


def subclass_closure(schema: Schema, name: str) -> list[str]:
    """All descendants of ``name`` following child links, nearest first."""
    seen: list[str] = []
    frontier = direct_children(schema, name)
    visited = {name}
    while frontier:
        current = frontier.pop(0)
        if current in visited:
            continue
        visited.add(current)
        seen.append(current)
        frontier.extend(
            child for child in direct_children(schema, current) if child not in visited
        )
    return seen


def inherited_attributes(schema: Schema, name: str) -> list[Attribute]:
    """The full attribute set of an object class, inherited ones included.

    A category inherits the attributes of the object classes it is defined
    over (Section 2 of the paper).  Locally declared attributes come first;
    inherited ones follow in ancestor order, with the key flag cleared (a
    parent's key need not identify the subset) and duplicates by name
    suppressed — a local declaration shadows an inherited one.
    """
    structure = schema.object_class(name)
    collected: list[Attribute] = list(structure.attributes)
    names = {attribute.name for attribute in collected}
    for ancestor_name in superclass_closure(schema, name):
        ancestor = schema.object_class(ancestor_name)
        for attribute in ancestor.attributes:
            if attribute.name not in names:
                names.add(attribute.name)
                collected.append(attribute.as_non_key())
    return collected


def root_classes(schema: Schema) -> list[str]:
    """Object classes with no parents (the entity sets), in order."""
    return [entity.name for entity in schema.entity_sets()]


def leaf_classes(schema: Schema) -> list[str]:
    """Object classes with no children, in insertion order."""
    with_children = set()
    for category in schema.categories():
        with_children.update(category.parents)
    return [
        structure.name
        for structure in schema.object_classes()
        if structure.name not in with_children
    ]


def isa_depth(schema: Schema, name: str) -> int:
    """Length of the longest parent chain above ``name`` (0 for entity sets)."""
    parents = direct_parents(schema, name)
    if not parents:
        return 0
    return 1 + max(isa_depth(schema, parent) for parent in parents)


def isa_edges(schema: Schema) -> list[tuple[str, str]]:
    """All (child, parent) IS-A edges of the schema, in insertion order."""
    edges: list[tuple[str, str]] = []
    for category in schema.categories():
        for parent in category.parents:
            edges.append((category.name, parent))
    return edges


def topological_order(schema: Schema) -> list[str]:
    """Object classes ordered parents-before-children.

    Raises
    ------
    SchemaError
        If the IS-A graph contains a cycle.
    """
    classes = [structure.name for structure in schema.object_classes()]
    known = set(classes)
    order: list[str] = []
    permanent: set[str] = set()
    in_progress: set[str] = set()
    # depth first with an explicit stack of (class, its unvisited
    # parents): a recursive closure would be a reference cycle
    for root in classes:
        if root in permanent:
            continue
        in_progress.add(root)
        stack = [(root, iter(direct_parents(schema, root)))]
        while stack:
            name, parents = stack[-1]
            for parent in parents:
                if parent not in known or parent in permanent:
                    continue
                if parent in in_progress:
                    raise SchemaError(
                        f"IS-A cycle through {parent!r} in {schema.name!r}"
                    )
                in_progress.add(parent)
                stack.append((parent, iter(direct_parents(schema, parent))))
                break
            else:
                stack.pop()
                in_progress.discard(name)
                permanent.add(name)
                order.append(name)
    return order


def common_ancestors(schema: Schema, names: Iterable[str]) -> list[str]:
    """Ancestors shared by every named object class (each may include itself)."""
    names = list(names)
    if not names:
        return []
    closures = []
    for name in names:
        closure = [name] + superclass_closure(schema, name)
        closures.append(closure)
    shared = set(closures[0])
    for closure in closures[1:]:
        shared &= set(closure)
    return [name for name in closures[0] if name in shared]
