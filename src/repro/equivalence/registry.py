"""The attribute-equivalence registry behind Screen 7.

The registry assigns every attribute of every registered schema an
``Eq_class #`` exactly as the tool's Equivalence Class Creation and Deletion
Screen displays: initially each attribute sits in its own class; when the
DDA declares two attributes equivalent, the class number of one becomes the
class number of the other (we keep the smaller number so renumbering is
deterministic).  Deleting an attribute from its class moves it back into a
fresh singleton class.

Declaring an equivalence never fails for semantic reasons — equivalence is
the DDA's subjective judgement — but the registry reports *issues* (domain
incompatibility, key-flag mismatch) the tool surfaces as warnings, following
the characteristics Larson et al. (1987) compare.

The registry is also a **publisher on the event-sourced kernel bus**:
every mutation bumps a monotonically increasing :attr:`version` and is
committed as a ``registry.*`` event on :attr:`bus` (an
:class:`~repro.kernel.bus.EventBus`, created standalone or shared with an
:class:`~repro.kernel.kernel.Kernel`).  The cached OCS/ACS views obtained
through :meth:`ocs` / :meth:`acs` subscribe through :meth:`subscribe`,
which delivers the classic :class:`RegistryChange` view of each event, and
invalidate only the object pairs a change actually touched, so the
interactive loop never rebuilds a matrix from scratch per keystroke.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.ecr.attributes import Attribute, AttributeRef
from repro.ecr.coerce import coerce_attribute_ref
from repro.ecr.domains import domains_compatible
from repro.ecr.schema import Schema
from repro.errors import DuplicateNameError, EquivalenceError, UnknownNameError
from repro.kernel.bus import EventBus, Subscription
from repro.kernel.events import NO_CHANGE
from repro.obs.metrics import AnalysisCounters
from repro.obs.trace import span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.ecr.objects import ObjectKind
    from repro.equivalence.acs import AcsMatrix
    from repro.equivalence.ocs import OcsMatrix
    from repro.kernel.events import Event


@dataclass(frozen=True)
class EquivalenceIssue:
    """A non-fatal observation about a declared equivalence."""

    first: AttributeRef
    second: AttributeRef
    message: str

    def __str__(self) -> str:
        return f"{self.first} ~ {self.second}: {self.message}"


@dataclass(frozen=True)
class RegistryChange:
    """One mutation of the registry, as seen by the cached views.

    ``objects`` lists the ``(schema, object)`` owners whose equivalence
    structure changed — a view only needs to drop cells whose row or column
    is one of these.  ``schemas`` lists schemas whose *shape* changed
    (structures or attributes added/removed), which forces the affected
    views to re-derive their rows and columns entirely.
    """

    kind: str
    version: int
    objects: frozenset[tuple[str, str]] = frozenset()
    schemas: frozenset[str] = frozenset()

    def touches_schema(self, name: str) -> bool:
        """Whether this change affects anything inside ``name``."""
        return name in self.schemas or any(
            schema == name for schema, _ in self.objects
        )


class EquivalenceRegistry:
    """Equivalence classes over the attributes of registered schemas."""

    #: event action -> the ``RegistryChange.kind`` subscribers have always seen
    _CHANGE_KINDS = {
        "register_schema": "register",
        "refresh_schema": "refresh",
        "declare_equivalent": "declare",
        "remove_from_class": "remove",
        "restore_classes": "restore",
        "evolve_schema": "evolve",
    }

    def __init__(
        self,
        schemas: Iterable[Schema] = (),
        *,
        counters: AnalysisCounters | None = None,
        bus: EventBus | None = None,
    ) -> None:
        self._schemas: dict[str, Schema] = {}
        self._class_of: dict[AttributeRef, int] = {}
        self._members: dict[int, list[AttributeRef]] = {}
        self._next_class = 1
        self._version = 0
        #: the kernel bus every mutation is committed to (a standalone
        #: registry gets its own; an :class:`AnalysisSession` shares its
        #: kernel's bus so the audit log, views and undo all see one log)
        self.bus = bus if bus is not None else EventBus()
        #: shared work counters (an :class:`AnalysisSession` injects its own)
        self.counters = counters if counters is not None else AnalysisCounters()
        self._ocs_cache: dict[tuple[str, str, object], "OcsMatrix"] = {}
        self._acs_cache: dict[tuple[str, str], "AcsMatrix"] = {}
        for schema in schemas:
            self.register_schema(schema)

    # -- versioning and change events ---------------------------------------

    @property
    def version(self) -> int:
        """Monotonically increasing mutation counter."""
        return self._version

    def subscribe(
        self, listener: Callable[[RegistryChange], None]
    ) -> Subscription:
        """Deliver future mutations to ``listener`` as :class:`RegistryChange`s.

        The listener is backed by a bus subscription on the ``registry``
        scope; the returned :class:`~repro.kernel.bus.Subscription` handle
        cancels it.  Events that changed nothing (a re-declared
        equivalence, a removal from a singleton class) are filtered out,
        matching the old direct-notification behaviour.
        """

        def adapter(event: "Event") -> None:
            if not event.objects and not event.schemas:
                return  # no-op mutation: nothing to invalidate
            kind = self._CHANGE_KINDS.get(event.action)
            if kind is None:
                return
            listener(
                RegistryChange(
                    kind, self._version, event.objects, event.schemas
                )
            )

        return self.bus.subscribe(adapter, scopes=("registry",))

    def _emit(
        self,
        action: str,
        payload: dict[str, Any],
        *,
        objects: frozenset = frozenset(),
        schemas: frozenset = frozenset(),
        inverse: object = None,
        bump: bool = True,
    ) -> None:
        """Commit one mutation as a ``registry.*`` event on the bus.

        ``bump=False`` publishes without advancing :attr:`version` — used
        for no-op mutations that stay in the history (the audit log
        records the DDA's attempt) but must not trigger invalidation.
        """
        if bump:
            self._version += 1
            self.counters.registry_mutations += 1
        self.bus.publish(
            "registry",
            action,
            payload,
            objects=objects,
            schemas=schemas,
            inverse=inverse,
        )

    @staticmethod
    def _owners(members: Iterable[AttributeRef]) -> frozenset[tuple[str, str]]:
        return frozenset(ref.owner for ref in members)

    # -- schema registration -------------------------------------------------

    def register_schema(self, schema: Schema) -> None:
        """Register a schema, numbering each of its attributes.

        Class numbers are assigned in schema/structure/attribute order, which
        reproduces the numbering a DDA sees when walking Screen 7.
        """
        if schema.name in self._schemas:
            raise DuplicateNameError("schema", schema.name)
        from repro.ecr.json_io import schema_to_dict

        with span(
            "phase1.registry.register_schema",
            counters=self.counters,
            schema=schema.name,
        ):
            self._schemas[schema.name] = schema
            for ref in schema.all_attribute_refs():
                self._class_of[ref] = self._next_class
                self._members[self._next_class] = [ref]
                self._next_class += 1
            self._emit(
                "register_schema",
                {"schema": schema_to_dict(schema)},
                schemas=frozenset({schema.name}),
            )

    def schemas(self) -> list[Schema]:
        """The registered schemas, in registration order."""
        return list(self._schemas.values())

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownNameError("schema", name) from None

    def resolve(self, ref: AttributeRef) -> Attribute:
        """Dereference a qualified attribute (validating every level)."""
        return self.schema(ref.schema).resolve_attribute(ref)

    def refresh_schema(
        self, schema_name: str, replacement: Schema | None = None
    ) -> None:
        """Re-scan a registered schema after external edits.

        Newly added attributes get fresh singleton classes; attributes that
        disappeared are dropped from their classes.  Existing class
        memberships are preserved.  ``replacement`` swaps in a new
        :class:`Schema` object under the same name first (the audit replay
        uses this to reproduce in-place edits it cannot observe).
        """
        self.schema(schema_name)  # validate the name before mutating
        if replacement is not None:
            if replacement.name != schema_name:
                raise EquivalenceError(
                    f"replacement schema is named {replacement.name!r}, "
                    f"not {schema_name!r}"
                )
            self._schemas[schema_name] = replacement
        from repro.ecr.json_io import schema_to_dict

        with span(
            "phase2.registry.refresh_schema",
            counters=self.counters,
            schema=schema_name,
        ):
            schema = self._schemas[schema_name]
            current = set(schema.all_attribute_refs())
            known = {ref for ref in self._class_of if ref.schema == schema_name}
            for ref in sorted(known - current):
                self._detach(ref)
                del self._class_of[ref]
            for ref in schema.all_attribute_refs():
                if ref not in self._class_of:
                    self._class_of[ref] = self._next_class
                    self._members[self._next_class] = [ref]
                    self._next_class += 1
            self._emit(
                "refresh_schema",
                {"schema": schema_to_dict(schema)},
                schemas=frozenset({schema_name}),
            )

    def evolve_schema(
        self,
        schema_name: str,
        *,
        added: Iterable[AttributeRef | str] = (),
        dropped: Iterable[AttributeRef | str] = (),
        renamed: Iterable[tuple] = (),
        touched: Iterable[tuple[str, str]] = (),
        structural: bool = False,
    ) -> None:
        """Apply the precise attribute deltas of one schema edit.

        Unlike :meth:`refresh_schema` — which re-scans the whole schema and
        *loses* class membership on a rename (the old ref vanishes, the new
        one arrives as a fresh singleton) — this applies exactly the deltas
        a :class:`~repro.evolution.edits.SchemaEdit` computed: renamed
        attributes keep their equivalence class (and their position inside
        it, so an inverse rename restores the registry bit-for-bit),
        dropped attributes leave their class, added attributes arrive as
        singletons.  ``touched`` lists extra ``(schema, object)`` owners
        whose definition changed without any attribute delta (key flags,
        cardinalities, retargets) so the cached views invalidate their
        cells; ``structural`` marks class/relationship-set membership
        changes, which force the views to re-derive rows and columns.
        """
        self.schema(schema_name)  # validate the name before mutating
        added = [coerce_attribute_ref(ref) for ref in added]
        dropped = [coerce_attribute_ref(ref) for ref in dropped]
        renamed = [
            (coerce_attribute_ref(old), coerce_attribute_ref(new))
            for old, new in renamed
        ]
        with span(
            "evolution.registry.evolve_schema",
            counters=self.counters,
            schema=schema_name,
        ):
            affected: set[tuple[str, str]] = set(touched)
            for old, new in renamed:
                number = self._class_of.pop(old, None)
                if number is None:
                    raise EquivalenceError(f"unregistered attribute {old}")
                members = self._members[number]
                members[members.index(old)] = new
                self._class_of[new] = number
                affected.add(old.owner)
                affected.add(new.owner)
            for ref in dropped:
                if ref not in self._class_of:
                    continue
                affected.update(self._owners(self._members[self._class_of[ref]]))
                self._detach(ref)
                del self._class_of[ref]
            for ref in added:
                if ref in self._class_of:
                    continue
                self._class_of[ref] = self._next_class
                self._members[self._next_class] = [ref]
                self._next_class += 1
                affected.add(ref.owner)
            self._emit(
                "evolve_schema",
                {
                    "schema": schema_name,
                    "added": [str(ref) for ref in added],
                    "dropped": [str(ref) for ref in dropped],
                    "renamed": [[str(old), str(new)] for old, new in renamed],
                    "touched": sorted(f"{s}.{o}" for s, o in touched),
                },
                objects=frozenset(affected),
                schemas=frozenset({schema_name}) if structural else frozenset(),
            )

    # -- cached views ---------------------------------------------------------

    def ocs(
        self,
        first_schema: str,
        second_schema: str,
        kind_filter: "ObjectKind | None" = None,
    ) -> "OcsMatrix":
        """The memoized OCS matrix between two registered schemas.

        Repeated calls with the same arguments return the *same* matrix
        object; its cells are cached and invalidated per object pair as the
        registry mutates.  This is the way to obtain a matrix — direct
        :class:`~repro.equivalence.ocs.OcsMatrix` construction builds an
        unshared cache.
        """
        from repro.equivalence.ocs import OcsMatrix

        key = (first_schema, second_schema, kind_filter)
        matrix = self._ocs_cache.get(key)
        if matrix is None:
            self.schema(first_schema)
            self.schema(second_schema)
            matrix = OcsMatrix(
                self,
                first_schema,
                second_schema,
                kind_filter=kind_filter,
            )
            self._ocs_cache[key] = matrix
        return matrix

    def acs(self, first_schema: str, second_schema: str) -> "AcsMatrix":
        """The memoized ACS matrix between two registered schemas.

        Like :meth:`ocs`, returns one long-lived cached view per schema
        pair; direct :class:`~repro.equivalence.acs.AcsMatrix` construction
        builds an unshared cache.
        """
        from repro.equivalence.acs import AcsMatrix

        key = (first_schema, second_schema)
        matrix = self._acs_cache.get(key)
        if matrix is None:
            self.schema(first_schema)
            self.schema(second_schema)
            matrix = AcsMatrix(self, first_schema, second_schema)
            self._acs_cache[key] = matrix
        return matrix

    # -- equivalence editing -------------------------------------------------

    def declare_equivalent(
        self, first: AttributeRef | str, second: AttributeRef | str
    ) -> list[EquivalenceIssue]:
        """Merge the classes of two attributes; returns advisory issues.

        Raises
        ------
        EquivalenceError
            If either reference does not resolve, or both name the same
            attribute.
        """
        first = coerce_attribute_ref(first)
        second = coerce_attribute_ref(second)
        if first == second:
            raise EquivalenceError(
                f"cannot declare {first} equivalent to itself"
            )
        attr_a = self._checked_resolve(first)
        attr_b = self._checked_resolve(second)
        with span("phase2.registry.declare_equivalent", counters=self.counters):
            issues = self._inspect_pair(first, attr_a, second, attr_b)
            class_a = self._class_of[first]
            class_b = self._class_of[second]
            payload = {"first": str(first), "second": str(second)}
            if class_a != class_b:
                groups = [
                    [number, [str(ref) for ref in self._members[number]]]
                    for number in (class_a, class_b)
                ]
                keep, drop = sorted((class_a, class_b))
                for ref in self._members.pop(drop):
                    self._class_of[ref] = keep
                    self._members[keep].append(ref)
                self._emit(
                    "declare_equivalent",
                    payload,
                    objects=self._owners(self._members[keep]),
                    inverse=("registry", "restore_classes", {"groups": groups}),
                )
            else:
                # already merged: record the attempt, invalidate nothing
                self._emit(
                    "declare_equivalent", payload,
                    inverse=NO_CHANGE, bump=False,
                )
        return issues

    def remove_from_class(self, ref: AttributeRef | str) -> None:
        """Move an attribute back into a fresh singleton class (Screen 7 Delete)."""
        ref = coerce_attribute_ref(ref)
        self._checked_resolve(ref)
        old_class = self._class_of[ref]
        old_members = self._members[old_class]
        if len(old_members) == 1:
            # already alone: record the attempt, invalidate nothing
            self._emit(
                "remove_from_class", {"ref": str(ref)},
                inverse=NO_CHANGE, bump=False,
            )
            return
        with span("phase2.registry.remove_from_class", counters=self.counters):
            touched = self._owners(old_members)
            groups = [[old_class, [str(member) for member in old_members]]]
            self._detach(ref)
            self._class_of[ref] = self._next_class
            self._members[self._next_class] = [ref]
            self._next_class += 1
            self._emit(
                "remove_from_class",
                {"ref": str(ref)},
                objects=touched,
                inverse=("registry", "restore_classes", {"groups": groups}),
            )

    def restore_classes(self, groups: Iterable) -> None:
        """Reassign exact class numbers/memberships (inverse application).

        ``groups`` is ``[[class_number, [attribute refs]], ...]`` — the
        pre-mutation membership captured by :meth:`declare_equivalent` /
        :meth:`remove_from_class` as their inverse descriptor.  Every
        listed attribute is detached from wherever it currently sits and
        reattached to its recorded class.  A recorded number that other
        attributes hold by now (a state rebuild since the capture
        renumbered the classes) is replaced by a fresh one, so the
        memberships come back exact either way.
        """
        resolved = [
            (int(number), [coerce_attribute_ref(ref) for ref in refs])
            for number, refs in groups
        ]
        touched: set[tuple[str, str]] = set()
        with span("phase2.registry.restore_classes", counters=self.counters):
            for _, refs in resolved:
                for ref in refs:
                    if ref in self._class_of:
                        self._detach(ref)
            for index, (number, refs) in enumerate(resolved):
                if number in self._members:
                    number = self._next_class
                    resolved[index] = (number, refs)
                members = self._members.setdefault(number, [])
                for ref in refs:
                    self._class_of[ref] = number
                    members.append(ref)
                    touched.add(ref.owner)
                self._next_class = max(self._next_class, number + 1)
            self._emit(
                "restore_classes",
                {
                    "groups": [
                        [number, [str(ref) for ref in refs]]
                        for number, refs in resolved
                    ]
                },
                objects=frozenset(touched),
            )

    def view_cell_capacity(self) -> int:
        """Total cell count across the live cached OCS views.

        The denominator of the evolution repair-scope report ("recomputed
        14/2,400 OCS cells"): how many cells a full invalidation would
        eventually recompute, versus how many a localized repair did.
        """
        return sum(
            len(matrix.rows) * len(matrix.columns)
            for matrix in self._ocs_cache.values()
        )

    def dispose_views(self) -> None:
        """Cancel the cached matrices' bus subscriptions and drop them.

        Called when a session rebuilds onto a fresh registry sharing the
        same bus (``reset_to``): the old views must stop reacting to
        events that now describe a registry they no longer belong to.
        """
        for matrix in (*self._ocs_cache.values(), *self._acs_cache.values()):
            matrix.close()
        self._ocs_cache.clear()
        self._acs_cache.clear()

    def _detach(self, ref: AttributeRef) -> None:
        old_class = self._class_of[ref]
        members = self._members[old_class]
        members.remove(ref)
        if not members:
            del self._members[old_class]

    # -- queries ----------------------------------------------------------------

    def class_number(self, ref: AttributeRef | str) -> int:
        """The ``Eq_class #`` shown on Screen 7 for this attribute."""
        ref = coerce_attribute_ref(ref)
        try:
            return self._class_of[ref]
        except KeyError:
            raise EquivalenceError(f"unregistered attribute {ref}") from None

    def class_members(self, ref: AttributeRef | str) -> list[AttributeRef]:
        """All attributes equivalent to ``ref`` (including itself)."""
        return list(self._members[self.class_number(ref)])

    def are_equivalent(
        self, first: AttributeRef | str, second: AttributeRef | str
    ) -> bool:
        """Whether two attributes are currently in the same class."""
        return self.class_number(first) == self.class_number(second)

    def classes(self) -> list[list[AttributeRef]]:
        """All equivalence classes, ordered by class number."""
        return [list(self._members[num]) for num in sorted(self._members)]

    def nontrivial_classes(self) -> list[list[AttributeRef]]:
        """Classes with at least two members — the DDA's actual declarations."""
        return [members for members in self.classes() if len(members) > 1]

    def equivalent_class_count(
        self, first_object: tuple[str, str], second_object: tuple[str, str]
    ) -> int:
        """Number of equivalence classes spanning both object classes.

        This is the count the OCS matrix stores: classes that contain at
        least one attribute of each object.
        """
        numbers_a = self.object_class_numbers(first_object)
        numbers_b = self.object_class_numbers(second_object)
        return len(numbers_a & numbers_b)

    def shared_classes(
        self, first_object: tuple[str, str], second_object: tuple[str, str]
    ) -> list[list[AttributeRef]]:
        """The equivalence classes spanning both object classes."""
        shared = self.object_class_numbers(
            first_object
        ) & self.object_class_numbers(second_object)
        return [list(self._members[num]) for num in sorted(shared)]

    def object_class_numbers(self, owner: tuple[str, str]) -> set[int]:
        """Numbers of the equivalence classes holding the object's attributes."""
        schema_name, object_name = owner
        schema = self.schema(schema_name)
        structure = schema.get(object_name)
        return {
            self._class_of[AttributeRef(schema_name, object_name, attribute.name)]
            for attribute in structure.attributes
        }

    # -- helpers ------------------------------------------------------------------

    def _coerce(self, ref: AttributeRef | str) -> AttributeRef:
        """Deprecated spelling of :func:`repro.ecr.coerce.coerce_attribute_ref`."""
        return coerce_attribute_ref(ref)

    def _checked_resolve(self, ref: AttributeRef) -> Attribute:
        try:
            attribute = self.resolve(ref)
        except UnknownNameError as exc:
            raise EquivalenceError(str(exc)) from exc
        if ref not in self._class_of:
            self._class_of[ref] = self._next_class
            self._members[self._next_class] = [ref]
            self._next_class += 1
        return attribute

    def _inspect_pair(
        self,
        first: AttributeRef,
        attr_a: Attribute,
        second: AttributeRef,
        attr_b: Attribute,
    ) -> list[EquivalenceIssue]:
        issues: list[EquivalenceIssue] = []
        if not domains_compatible(attr_a.domain, attr_b.domain):
            issues.append(
                EquivalenceIssue(
                    first,
                    second,
                    f"domains {attr_a.domain} and {attr_b.domain} are incompatible",
                )
            )
        if attr_a.domain.unit != attr_b.domain.unit:
            issues.append(
                EquivalenceIssue(
                    first,
                    second,
                    f"units differ ({attr_a.domain.unit or 'none'} vs "
                    f"{attr_b.domain.unit or 'none'})",
                )
            )
        if attr_a.is_key != attr_b.is_key:
            issues.append(
                EquivalenceIssue(
                    first, second, "key property differs between the attributes"
                )
            )
        return issues
