"""Tests for the ACS and OCS matrices."""

import pytest

from repro.ecr.objects import ObjectKind
from repro.ecr.schema import ObjectRef
from repro.equivalence.acs import AcsMatrix
from repro.equivalence.ocs import OcsMatrix
from repro.workloads.university import paper_registry


@pytest.fixture
def registry():
    return paper_registry()


class TestAcs:
    def test_dimensions(self, registry):
        acs = registry.acs("sc1", "sc2")
        assert len(acs.rows) == 4  # Name, GPA, Name, Since
        assert len(acs.columns) == 9

    def test_equivalent_pairs(self, registry):
        acs = registry.acs("sc1", "sc2")
        pairs = {(str(a), str(b)) for a, b in acs.equivalent_pairs()}
        assert ("sc1.Student.Name", "sc2.Grad_student.Name") in pairs
        assert ("sc1.Student.Name", "sc2.Faculty.Name") in pairs
        assert ("sc1.Student.GPA", "sc2.Grad_student.GPA") in pairs
        assert ("sc1.Department.Name", "sc2.Department.Name") in pairs
        assert ("sc1.Majors.Since", "sc2.Majors.Since") in pairs
        assert len(pairs) == 5

    def test_boolean_matrix_agrees_with_cells(self, registry):
        acs = registry.acs("sc1", "sc2")
        matrix = acs.as_booleans()
        for i, row in enumerate(acs.rows):
            for j, column in enumerate(acs.columns):
                assert matrix[i][j] == acs.cell(row, column).equivalent

    def test_render_contains_marks(self, registry):
        text = registry.acs("sc1", "sc2").render()
        assert "X" in text and "sc1.Student.Name" in text

    def test_direct_construction_is_unshared(self, registry):
        acs = AcsMatrix(registry, "sc1", "sc2")
        assert len(acs.rows) == 4
        assert acs is not registry.acs("sc1", "sc2")


class TestOcs:
    def test_counts_match_paper(self, registry):
        ocs = registry.ocs("sc1", "sc2")
        counts = {
            (entry.row.object_name, entry.column.object_name):
                entry.equivalent_attributes
            for entry in ocs.entries()
        }
        assert counts == {
            ("Student", "Grad_student"): 2,
            ("Student", "Faculty"): 1,
            ("Department", "Department"): 1,
        }

    def test_include_zero(self, registry):
        ocs = registry.ocs("sc1", "sc2")
        all_entries = ocs.entries(include_zero=True)
        assert len(all_entries) == len(ocs.rows) * len(ocs.columns)

    def test_relationship_subphase(self, registry):
        ocs = registry.ocs("sc1", "sc2", ObjectKind.RELATIONSHIP)
        assert [ref.object_name for ref in ocs.rows] == ["Majors"]
        assert ocs.count(
            ObjectRef("sc1", "Majors"), ObjectRef("sc2", "Majors")
        ) == 1
        assert ocs.count(
            ObjectRef("sc1", "Majors"), ObjectRef("sc2", "Works")
        ) == 0

    def test_entity_kind_filter(self, registry):
        ocs = registry.ocs("sc1", "sc2", ObjectKind.ENTITY)
        assert all(
            registry.schema(ref.schema).get(ref.object_name).kind
            is ObjectKind.ENTITY
            for ref in ocs.rows + ocs.columns
        )

    def test_as_counts_shape(self, registry):
        ocs = registry.ocs("sc1", "sc2")
        counts = ocs.as_counts()
        assert len(counts) == len(ocs.rows)
        assert all(len(row) == len(ocs.columns) for row in counts)

    def test_render(self, registry):
        text = registry.ocs("sc1", "sc2").render()
        assert "OCS sc1 x sc2" in text
        assert "Grad_student" in text

    def test_direct_construction_is_unshared(self, registry):
        ocs = OcsMatrix(registry, "sc1", "sc2")
        assert ocs.count(
            ObjectRef("sc1", "Student"), ObjectRef("sc2", "Grad_student")
        ) == 2
        assert ocs is not registry.ocs("sc1", "sc2")

    def test_factory_returns_cached_instance(self, registry):
        first = registry.ocs("sc1", "sc2")
        assert registry.ocs("sc1", "sc2") is first
        # Different kind filters are distinct cached views.
        assert registry.ocs("sc1", "sc2", ObjectKind.ENTITY) is not first
