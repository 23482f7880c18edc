"""The data dictionary container with JSON persistence.

A :class:`DataDictionary` is the durable form of a design session: the
component schemas, the DDA's equivalence declarations, the specified
assertions (object-class and relationship-set), and any number of named
integration results with their mappings.  It can rebuild the live objects
— registry and networks — so a later sitting (or another tool) resumes
exactly where the previous one stopped.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

from repro import faults
from repro.assertions.kinds import AssertionKind, Source
from repro.assertions.network import AssertionNetwork
from repro.ecr.attributes import AttributeRef
from repro.ecr.json_io import schema_from_dict, schema_to_dict
from repro.ecr.schema import ObjectRef, Schema
from repro.equivalence.registry import EquivalenceRegistry
from repro.errors import (
    CorruptDictionaryError,
    DictionaryFormatError,
    DictionaryNotFoundError,
    SchemaError,
    UnknownNameError,
)
from repro.dictionary.serialize import (
    mapping_from_dict,
    mapping_to_dict,
    result_from_dict,
    result_to_dict,
)
from repro.integration.mappings import SchemaMapping
from repro.integration.result import IntegrationResult

#: Format marker written into every saved dictionary.  Version 2 added
#: the SHA-256 integrity footer; version-1 saves (no footer) still load.
FORMAT_VERSION = 2

#: Formats :meth:`DataDictionary.from_dict` can read.
READABLE_FORMATS = (1, 2)

#: The integrity footer: the last line of a v2 save file.
FOOTER_PREFIX = "#sha256="


class DataDictionary:
    """Schemas, equivalences, assertions and results, persistently."""

    def __init__(self) -> None:
        self._schemas: dict[str, Schema] = {}
        #: DDA equivalence declarations, in declaration order
        self._equivalences: list[tuple[AttributeRef, AttributeRef]] = []
        #: DDA assertions: (first, second, code, is_relationship)
        self._assertions: list[tuple[ObjectRef, ObjectRef, int, bool]] = []
        self._results: dict[str, IntegrationResult] = {}
        self._mappings: dict[str, dict[str, SchemaMapping]] = {}
        #: federated plans per result name, keyed by request text
        self._plans: dict[str, dict[str, dict[str, Any]]] = {}
        #: the kernel's exported event log + baseline (None on legacy saves)
        self._kernel: dict[str, Any] | None = None

    # -- content -------------------------------------------------------------

    def add_schema(self, schema: Schema) -> None:
        if schema.name in self._schemas:
            raise SchemaError(f"dictionary already holds {schema.name!r}")
        self._schemas[schema.name] = schema

    def schema(self, name: str) -> Schema:
        try:
            return self._schemas[name]
        except KeyError:
            raise UnknownNameError("schema", name, "dictionary") from None

    def schemas(self) -> list[Schema]:
        return list(self._schemas.values())

    def record_equivalence(
        self, first: AttributeRef | str, second: AttributeRef | str
    ) -> None:
        if isinstance(first, str):
            first = AttributeRef.parse(first)
        if isinstance(second, str):
            second = AttributeRef.parse(second)
        self._equivalences.append((first, second))

    def record_assertion(
        self,
        first: ObjectRef | str,
        second: ObjectRef | str,
        kind: AssertionKind | int,
        relationship: bool = False,
    ) -> None:
        if isinstance(first, str):
            first = ObjectRef.parse(first)
        if isinstance(second, str):
            second = ObjectRef.parse(second)
        if isinstance(kind, AssertionKind):
            kind = kind.code
        AssertionKind.from_code(kind)  # validate
        self._assertions.append((first, second, kind, relationship))

    def store_result(
        self,
        name: str,
        result: IntegrationResult,
        mappings: dict[str, SchemaMapping] | None = None,
    ) -> None:
        self._results[name] = result
        if mappings is not None:
            self._mappings[name] = dict(mappings)

    def result(self, name: str) -> IntegrationResult:
        try:
            return self._results[name]
        except KeyError:
            raise UnknownNameError("result", name, "dictionary") from None

    def mappings_for(self, name: str) -> dict[str, SchemaMapping]:
        return dict(self._mappings.get(name, {}))

    def result_names(self) -> list[str]:
        return list(self._results)

    def store_plan(self, result_name: str, plan) -> None:
        """Persist a federated plan alongside a stored result's mappings.

        ``plan`` is a :class:`~repro.federation.plan.FederatedPlan`; it is
        keyed by its request text, so re-storing a replanned request
        overwrites the stale plan.
        """
        if result_name not in self._results:
            raise UnknownNameError("result", result_name, "dictionary")
        self._plans.setdefault(result_name, {})[
            str(plan.request)
        ] = plan.to_dict()

    def plans_for(self, result_name: str) -> dict[str, Any]:
        """Stored federated plans for a result, keyed by request text.

        Values are :class:`~repro.federation.plan.FederatedPlan` objects.
        """
        from repro.federation.plan import FederatedPlan

        return {
            request: FederatedPlan.from_dict(entry)
            for request, entry in self._plans.get(result_name, {}).items()
        }

    def store_kernel(self, state: dict[str, Any]) -> None:
        """Persist a kernel's event log + baseline + cursors.

        ``state`` is :meth:`repro.kernel.Kernel.export_state` output; a
        session restored from it replays from the baseline and
        keeps its history (undo/redo work across save/load).
        """
        self._kernel = dict(state)

    def kernel_state(self) -> dict[str, Any] | None:
        """The stored kernel export, or ``None`` for legacy dictionaries."""
        return dict(self._kernel) if self._kernel is not None else None

    # -- live-object reconstruction -----------------------------------------------

    def build_registry(self) -> EquivalenceRegistry:
        """Registry over all schemas with every recorded equivalence."""
        registry = EquivalenceRegistry(self.schemas())
        for first, second in self._equivalences:
            registry.declare_equivalent(first, second)
        return registry

    def build_networks(self) -> tuple[AssertionNetwork, AssertionNetwork]:
        """(object network, relationship network) with everything replayed."""
        objects = AssertionNetwork()
        relationships = AssertionNetwork()
        for schema in self.schemas():
            objects.seed_schema(schema)
            for relationship in schema.relationship_sets():
                relationships.add_object(
                    ObjectRef(schema.name, relationship.name)
                )
        for first, second, code, is_relationship in self._assertions:
            network = relationships if is_relationship else objects
            existing = network.assertion_for(first, second)
            if (
                existing is not None
                and existing.source is not Source.DERIVED
                and existing.kind.code != code
            ):
                # a later recording of the same pair wins (review-and-modify)
                network.respecify(first, second, code)
            else:
                network.specify(first, second, code)
        return objects, relationships

    # -- persistence -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "format": FORMAT_VERSION,
            "schemas": [schema_to_dict(schema) for schema in self.schemas()],
            "equivalences": [
                [str(first), str(second)]
                for first, second in self._equivalences
            ],
            "assertions": [
                [str(first), str(second), code, relationship]
                for first, second, code, relationship in self._assertions
            ],
            "results": {
                name: result_to_dict(result)
                for name, result in self._results.items()
            },
            "mappings": {
                name: {
                    component: mapping_to_dict(mapping)
                    for component, mapping in mappings.items()
                }
                for name, mappings in self._mappings.items()
            },
            # optional: absent when no federated plans were stored, so
            # dictionaries written by older builds load unchanged
            **(
                {"plans": {
                    name: dict(plans)
                    for name, plans in self._plans.items()
                }}
                if self._plans
                else {}
            ),
            # optional: absent on legacy saves without an event history
            **({"kernel": self._kernel} if self._kernel else {}),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "DataDictionary":
        version = data.get("format")
        if version not in READABLE_FORMATS:
            raise DictionaryFormatError(version, READABLE_FORMATS)
        dictionary = cls()
        for entry in data.get("schemas", ()):
            dictionary.add_schema(schema_from_dict(entry))
        for first, second in data.get("equivalences", ()):
            dictionary.record_equivalence(first, second)
        for first, second, code, relationship in data.get("assertions", ()):
            dictionary.record_assertion(first, second, code, relationship)
        for name, entry in data.get("results", {}).items():
            dictionary._results[name] = result_from_dict(entry)
        for name, mappings in data.get("mappings", {}).items():
            dictionary._mappings[name] = {
                component: mapping_from_dict(mapping_data)
                for component, mapping_data in mappings.items()
            }
        for name, plans in data.get("plans", {}).items():
            dictionary._plans[name] = {
                request: dict(entry) for request, entry in plans.items()
            }
        kernel = data.get("kernel")
        if kernel is not None:
            dictionary._kernel = dict(kernel)
        return dictionary

    def save(self, path: str | Path) -> None:
        """Write the dictionary as checksummed JSON, atomically.

        The JSON body is followed by an integrity footer line
        (``#sha256=<hex digest of the body>``); the whole text is
        written to a temporary sibling, fsynced, and renamed over
        ``path`` — a crash mid-save leaves either the old save or the
        new one, never a torn file, and a damaged file is detected at
        load time instead of silently misparsed.
        """
        path = Path(path)
        body = json.dumps(self.to_dict(), indent=2)
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        data = f"{body}\n{FOOTER_PREFIX}{digest}\n".encode("utf-8")
        tmp = path.with_name(path.name + ".tmp")
        with faults.open_tracked(tmp, "wb") as handle:
            handle.write(data, point="dict.save.write")
            faults.crashpoint("dict.save.after_write")
            handle.fsync()
        faults.crashpoint("dict.save.before_replace")
        faults.replace(tmp, path)
        faults.crashpoint("dict.save.after_replace")
        faults.fsync_dir(path.parent)

    @classmethod
    def load(cls, path: str | Path) -> "DataDictionary":
        """Read a dictionary saved by :meth:`save`.

        Raises :class:`~repro.errors.DictionaryNotFoundError` when the
        file is missing, :class:`~repro.errors.CorruptDictionaryError`
        when it is damaged (bad JSON, checksum mismatch, or a v2 body
        whose footer was truncated away), and
        :class:`~repro.errors.DictionaryFormatError` when its ``format``
        marker is unknown to this build.  Version-1 saves (pre-footer)
        load unchanged.
        """
        path = Path(path)
        try:
            return cls.from_dict(read_save(path))
        except DictionaryFormatError as exc:
            raise DictionaryFormatError(
                exc.version, exc.readable, path
            ) from None


def read_save(path: Path) -> dict[str, Any]:
    """Read and integrity-check one save file; returns the parsed body.

    The verification order matters: a checksum mismatch is reported
    before any parse attempt (a bit flip may still leave valid JSON),
    and a v2 body without its footer is corruption (truncation chopped
    the footer off), not a v1 file.
    """
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DictionaryNotFoundError(path) from None
    except OSError as exc:
        raise CorruptDictionaryError(f"unreadable: {exc}", path) from exc
    except UnicodeDecodeError as exc:
        # a bit flip can break the encoding before it breaks the JSON
        raise CorruptDictionaryError(f"not valid UTF-8: {exc}", path) from None
    body, digest = _split_footer(text)
    if digest is not None:
        actual = hashlib.sha256(body.encode("utf-8")).hexdigest()
        if actual != digest:
            raise CorruptDictionaryError(
                f"checksum mismatch (footer {digest[:12]}…, "
                f"body {actual[:12]}…)",
                path,
            )
    try:
        data = json.loads(body)
    except json.JSONDecodeError as exc:
        raise CorruptDictionaryError(f"invalid JSON: {exc}", path) from None
    if not isinstance(data, dict):
        raise CorruptDictionaryError(
            f"top level is {type(data).__name__}, expected an object", path
        )
    version = data.get("format")
    if version not in READABLE_FORMATS:
        raise DictionaryFormatError(version, READABLE_FORMATS, path)
    if isinstance(version, int) and version >= 2 and digest is None:
        raise CorruptDictionaryError(
            "integrity footer missing from a format>=2 save "
            "(truncated file?)",
            path,
        )
    return data


def _split_footer(text: str) -> tuple[str, str | None]:
    """Split save text into (JSON body, footer digest or ``None``)."""
    stripped = text.rstrip("\n")
    newline = stripped.rfind("\n")
    last_line = stripped[newline + 1 :]
    if not last_line.startswith(FOOTER_PREFIX):
        return text, None
    return stripped[: max(newline, 0)], last_line[len(FOOTER_PREFIX) :]
