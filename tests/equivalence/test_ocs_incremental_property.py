"""The memoized OCS view equals a cold one after any edit sequence.

A session's OCS matrix keeps its cells per row by column position and
drops only the cells an edit can change.  This property drives a
session through random Screen 7 declarations and deletions and schema
evolution edits — attribute add and drop, which dirty one object, and
class add and drop, which take the ``evolve`` reselect path and move the
surviving columns — and after every step checks that:

* ``as_counts()`` and both ranked lists equal those of a directly
  constructed :class:`OcsMatrix`, ranked on the five-part sort key;
* the step's recount touched exactly the dirty cells: the dirty rows
  by every column plus the dirty columns by every row, each shared
  cell once, where a row or column is dirty if the step's registry
  changes name it or it is new.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecr.attributes import Attribute
from repro.ecr.json_io import attribute_to_dict
from repro.ecr.schema import ObjectRef
from repro.equivalence.ocs import OcsMatrix
from repro.equivalence.ordering import ordered_object_pairs
from repro.equivalence.resemblance import attribute_ratio
from repro.equivalence.session import AnalysisSession
from repro.errors import ReproError
from repro.evolution.edits import AddAttribute, AddClass, DropAttribute, DropClass
from repro.workloads.generator import GeneratorConfig, generate_schema_pair

OPERATIONS = ("declare", "remove", "add_attribute", "drop_attribute",
              "add_class", "drop_class")


def cold_ranking(matrix: OcsMatrix, include_zero: bool) -> list[tuple]:
    """The Screen 8 order off a cold matrix, on the five-part key."""
    rows = []
    for entry in matrix.entries(include_zero=include_zero):
        ratio = attribute_ratio(
            entry.equivalent_attributes,
            matrix.attribute_count(entry.row),
            matrix.attribute_count(entry.column),
        )
        rows.append((entry.row, entry.column, entry.equivalent_attributes, ratio))
    rows.sort(
        key=lambda row: (
            -row[3],
            row[0].schema,
            row[0].object_name,
            row[1].schema,
            row[1].object_name,
        )
    )
    return rows


def ranked(pairs) -> list[tuple]:
    return [
        (pair.first, pair.second, pair.equivalent_attributes, pair.attribute_ratio)
        for pair in pairs
    ]


def attributes_of(session: AnalysisSession, names: list[str]) -> list[str]:
    return [
        f"{name}.{structure.name}.{attribute.name}"
        for name in names
        for structure in session.registry.schema(name).object_classes()
        for attribute in structure.attributes
    ]


def apply_step(session, names, data, step: int) -> None:
    operation = data.draw(st.sampled_from(OPERATIONS))
    schema_name = data.draw(st.sampled_from(names))
    schema = session.registry.schema(schema_name)
    classes = [structure.name for structure in schema.object_classes()]
    if operation in ("declare", "remove", "drop_attribute"):
        attributes = attributes_of(session, names)
        if not attributes:
            return
        chosen = data.draw(st.sampled_from(attributes))
        if operation == "declare":
            session.declare_equivalent(chosen, data.draw(st.sampled_from(attributes)))
        elif operation == "remove":
            session.remove_from_class(chosen)
        else:
            owner_schema, owner, attribute = chosen.split(".")
            session.apply_edit(owner_schema, DropAttribute(owner, attribute))
    elif operation == "add_attribute" and classes:
        session.apply_edit(
            schema_name,
            AddAttribute(
                data.draw(st.sampled_from(classes)),
                Attribute(f"Added{step}", "char"),
            ),
        )
    elif operation == "add_class":
        count = data.draw(st.integers(min_value=0, max_value=2))
        structure = {
            "name": f"New{step}",
            "kind": "e",
            "attributes": [
                attribute_to_dict(Attribute(f"Extra{index}", "char"))
                for index in range(count)
            ],
        }
        position = data.draw(st.integers(min_value=0, max_value=len(schema)))
        session.apply_edit(schema_name, AddClass(structure, position))
    elif operation == "drop_class" and classes:
        session.apply_edit(
            schema_name, DropClass(data.draw(st.sampled_from(classes)), cascade=True)
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    concepts=st.integers(min_value=3, max_value=7),
    data=st.data(),
)
def test_incremental_ocs_equals_a_cold_matrix(seed, concepts, data):
    pair = generate_schema_pair(
        GeneratorConfig(seed=seed, concepts=concepts, category_rate=0.5)
    )
    session = AnalysisSession([pair.first, pair.second])
    names = [pair.first.name, pair.second.name]
    first, second = names
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    session.registry.ocs(first, second).as_counts()  # warm every cell
    for step in range(data.draw(st.integers(min_value=1, max_value=8))):
        registry = session.registry
        live = registry.ocs(first, second)
        old_rows, old_columns = set(live.rows), set(live.columns)
        changes = []
        subscription = registry.subscribe(changes.append)
        try:
            apply_step(session, names, data, step)
        except ReproError:
            pass  # a refused edit is a no-op; the views must still agree
        finally:
            subscription.cancel()

        rebuilt = session.registry is not registry  # a rolled-back edit
        registry = session.registry
        live = registry.ocs(first, second)
        rows, columns = live.rows, live.columns
        if rebuilt or any(
            change.kind != "evolve" and set(change.schemas) & set(names)
            for change in changes
        ):
            dirty = len(rows) * len(columns)
        else:
            affected = {
                ObjectRef(schema, name)
                for change in changes
                for schema, name in change.objects
            }
            dirty = sum(
                1
                for row in rows
                for column in columns
                if row in affected
                or column in affected
                or row not in old_rows
                or column not in old_columns
            )
        counters = registry.counters
        before = counters.ocs_cells_recomputed
        counts = live.as_counts()
        assert counters.ocs_cells_recomputed - before == dirty

        cold = OcsMatrix(registry, first, second)
        try:
            assert counts == cold.as_counts()
            for include_zero in (True, False):
                assert ranked(
                    ordered_object_pairs(
                        registry, first, second, include_zero=include_zero
                    )
                ) == cold_ranking(cold, include_zero)
        finally:
            cold.close()
