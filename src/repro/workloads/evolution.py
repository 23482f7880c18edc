"""Deterministic seeded schema-evolution scripts.

The evolution benchmarks and property tests need *edit traffic*: a
reproducible sequence of typed :class:`~repro.evolution.SchemaEdit`\\ s
against a live analysis session, with a controllable fraction of edits
guaranteed to be *invalidating* — cascade drops of object classes that
carry specified assertions, so the repair pipeline has to retract facts,
re-derive their dependent closure and rebuild clusters rather than just
touch the registry.

Scripts are generated lazily against the session's current state (each
step sees the names the previous steps created or destroyed), so the
caller must apply each scripted edit before drawing the next.  Equal
``(session state, config)`` inputs produce identical sequences:
randomness comes only from ``random.Random(config.seed)`` and every
candidate list is drawn in sorted order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.ecr.attributes import Attribute
from repro.ecr.domains import Domain, DomainKind
from repro.ecr.relationships import RelationshipSet
from repro.errors import SchemaError
from repro.evolution import (
    AddAttribute,
    AddClass,
    DropClass,
    RenameAttribute,
    SchemaEdit,
)

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.equivalence.session import AnalysisSession


@dataclass(frozen=True)
class EvolutionConfig:
    """Parameters of a seeded evolution script.

    ``invalidating_fraction`` is the fraction of the script's edits that
    must be invalidating (cascade drops of assertion-carrying classes);
    the script front-loads ordinary edits and plants the invalidating
    ones evenly.  When the session runs out of droppable
    assertion-carrying classes the script raises
    :class:`~repro.errors.SchemaError` rather than silently under-deliver.
    """

    seed: int = 0
    edits: int = 6
    invalidating_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.edits < 0:
            raise SchemaError(f"edits must be >= 0, got {self.edits}")
        if not 0.0 <= self.invalidating_fraction <= 1.0:
            raise SchemaError(
                "invalidating_fraction must be within [0, 1], got "
                f"{self.invalidating_fraction}"
            )

    @property
    def invalidating_edits(self) -> int:
        """How many edits of the script must invalidate assertions."""
        return round(self.edits * self.invalidating_fraction)


@dataclass(frozen=True)
class ScriptedEdit:
    """One step of an evolution script: which schema, which edit."""

    schema: str
    edit: SchemaEdit
    #: whether this step was planted to invalidate assertions
    invalidating: bool = False


def _asserted_objects(session: "AnalysisSession") -> set[tuple[str, str]]:
    """(schema, object) owners of at least one specified assertion."""
    owners: set[tuple[str, str]] = set()
    for assertion in session.object_network.specified_assertions():
        owners.add((assertion.first.schema, assertion.first.object_name))
        owners.add((assertion.second.schema, assertion.second.object_name))
    return owners


def _droppable(schema, name: str) -> bool:
    """Whether dropping ``name`` leaves no dangling references."""
    for structure in schema:
        if structure.is_category and name in structure.parents:
            return False
        if isinstance(structure, RelationshipSet) and any(
            leg.object_name == name for leg in structure.participations
        ):
            return False
    return True


def _attribute_sites(session: "AnalysisSession") -> list[tuple[str, str, str]]:
    """Every (schema, object, attribute) triple, sorted."""
    sites = []
    for schema in session.schemas():
        for structure in schema:
            for attribute in structure.attributes:
                sites.append((schema.name, structure.name, attribute.name))
    return sorted(sites)


def _invalidating_edit(
    session: "AnalysisSession", rng: random.Random
) -> ScriptedEdit | None:
    candidates = sorted(
        (schema, name)
        for schema, name in _asserted_objects(session)
        if schema in {s.name for s in session.schemas()}
        and name in session.registry.schema(schema)
        and _droppable(session.registry.schema(schema), name)
    )
    if not candidates:
        return None
    schema, name = rng.choice(candidates)
    return ScriptedEdit(
        schema, DropClass(name, cascade=True), invalidating=True
    )


def _ordinary_edit(
    session: "AnalysisSession", rng: random.Random, serial: int
) -> ScriptedEdit:
    sites = _attribute_sites(session)
    choices = ["add_class", "add_attribute"]
    if sites:
        choices.append("rename_attribute")
    kind = rng.choice(choices)
    schemas = sorted(schema.name for schema in session.schemas())
    if kind == "add_class":
        schema = rng.choice(schemas)
        return ScriptedEdit(
            schema,
            AddClass(
                {
                    "kind": "e",
                    "name": f"Evo_class_{serial}",
                    "attributes": [
                        {
                            "name": "evo_key",
                            "domain": {"kind": "integer"},
                            "is_key": True,
                        }
                    ],
                }
            ),
        )
    if kind == "add_attribute":
        targets = sorted(
            (schema.name, structure.name)
            for schema in session.schemas()
            for structure in schema
        )
        schema, structure = rng.choice(targets)
        return ScriptedEdit(
            schema,
            AddAttribute(
                structure,
                Attribute(f"evo_attr_{serial}", Domain(DomainKind.INTEGER)),
            ),
        )
    schema, structure, attribute = rng.choice(sites)
    return ScriptedEdit(
        schema,
        RenameAttribute(structure, attribute, f"{attribute}_v{serial}"),
    )


def evolution_script(
    session: "AnalysisSession",
    config: EvolutionConfig = EvolutionConfig(),
) -> Iterator[ScriptedEdit]:
    """Yield a seeded edit sequence against a live session, lazily.

    The caller must apply each yielded edit (via
    :meth:`AnalysisSession.apply_edit
    <repro.equivalence.session.AnalysisSession.apply_edit>`) before
    drawing the next one — later steps are generated against the state
    the earlier steps produced.  At least
    :attr:`EvolutionConfig.invalidating_edits` of the yielded steps are
    cascade drops of assertion-carrying classes.
    """
    rng = random.Random(config.seed)
    owed = config.invalidating_edits
    for index in range(config.edits):
        remaining = config.edits - index
        scripted = None
        if owed >= remaining or (
            owed > 0 and rng.random() < config.invalidating_fraction
        ):
            scripted = _invalidating_edit(session, rng)
            if scripted is None and owed >= remaining:
                raise SchemaError(
                    "evolution script cannot deliver its invalidating "
                    f"quota: {owed} drops still owed but no droppable "
                    "assertion-carrying class remains"
                )
        if scripted is None:
            scripted = _ordinary_edit(session, rng, index)
        else:
            owed -= 1
        yield scripted


def run_evolution_script(
    session: "AnalysisSession",
    config: EvolutionConfig = EvolutionConfig(),
) -> list[tuple[ScriptedEdit, "object"]]:
    """Generate *and apply* a script; returns (step, EditOutcome) pairs."""
    applied = []
    for scripted in evolution_script(session, config):
        outcome = session.apply_edit(scripted.schema, scripted.edit)
        applied.append((scripted, outcome))
    return applied


__all__ = [
    "EvolutionConfig",
    "ScriptedEdit",
    "evolution_script",
    "run_evolution_script",
]
