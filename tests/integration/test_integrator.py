"""Tests for the integration engine against the paper's Figure 5 and
the Figure 2 assertion catalogue."""

import hashlib
import json

import pytest

from repro.assertions.kinds import AssertionKind, Source
from repro.assertions.network import AssertionNetwork
from repro.ecr.builder import SchemaBuilder
from repro.ecr.schema import ObjectRef
from repro.ecr.validation import validate_schema
from repro.equivalence.registry import EquivalenceRegistry
from repro.errors import IntegrationError
from repro.integration.integrator import Integrator, integrate_pair
from repro.integration.options import IntegrationOptions
from repro.kernel.apply import schema_fingerprint
from repro.workloads.generator import GeneratorConfig, generate_schema_pair


class TestFigure5:
    def test_structure_names(self, paper_result):
        schema = paper_result.schema
        assert [e.name for e in schema.entity_sets()] == [
            "E_Department",
            "D_Stud_Facu",
        ]
        assert [c.name for c in schema.categories()] == [
            "Student",
            "Grad_student",
            "Faculty",
        ]
        assert [r.name for r in schema.relationship_sets()] == [
            "E_Stud_Majo",
            "Works",
        ]

    def test_lattice_edges(self, paper_result):
        schema = paper_result.schema
        assert schema.category("Student").parents == ["D_Stud_Facu"]
        assert schema.category("Faculty").parents == ["D_Stud_Facu"]
        assert schema.category("Grad_student").parents == ["Student"]

    def test_result_is_valid_schema(self, paper_result):
        assert not any(
            issue.is_error for issue in validate_schema(paper_result.schema)
        )

    def test_derived_attribute_d_name(self, paper_result):
        components = paper_result.component_attributes("Student", "D_Name")
        assert [str(c) for c in components] == [
            "sc1.Student.Name",
            "sc2.Grad_student.Name",
        ]

    def test_faculty_keeps_own_name(self, paper_result):
        faculty = paper_result.schema.category("Faculty")
        assert faculty.attribute_names() == ["Name", "Rank"]

    def test_derived_parent_has_no_attributes_by_default(self, paper_result):
        assert paper_result.schema.get("D_Stud_Facu").attributes == []

    def test_e_department_merges_names(self, paper_result):
        department = paper_result.schema.entity_set("E_Department")
        assert set(department.attribute_names()) == {"D_Name", "Location"}

    def test_merged_relationship_legs(self, paper_result):
        majors = paper_result.schema.relationship_set("E_Stud_Majo")
        legs = {
            leg.object_name: str(leg.cardinality)
            for leg in majors.participations
        }
        assert legs == {"Student": "(1,1)", "E_Department": "(0,n)"}

    def test_works_copied_with_remapped_participants(self, paper_result):
        works = paper_result.schema.relationship_set("Works")
        assert works.participant_names() == ["Faculty", "E_Department"]

    def test_object_mapping_total(self, paper_result, registry):
        for schema in registry.schemas():
            for structure in schema:
                ref = ObjectRef(schema.name, structure.name)
                assert ref in paper_result.object_mapping

    def test_attribute_mapping_total(self, paper_result, registry):
        for schema in registry.schemas():
            for ref in schema.all_attribute_refs():
                assert ref in paper_result.attribute_mapping

    def test_provenance_nodes(self, paper_result):
        e_dept = paper_result.nodes["E_Department"]
        assert e_dept.is_equivalent
        assert {str(c) for c in e_dept.components} == {
            "sc1.Department",
            "sc2.Department",
        }
        d_parent = paper_result.nodes["D_Stud_Facu"]
        assert d_parent.is_derived

    def test_log_records_clusters_and_merges(self, paper_result):
        log = "\n".join(paper_result.log)
        assert "clusters:" in log
        assert "equals merge: E_Department" in log
        assert "derived parent: D_Stud_Facu" in log
        assert "derived attribute: Student.D_Name" in log

    def test_summary(self, paper_result):
        text = paper_result.summary()
        assert "2 equivalent merges" in text
        assert "1 derived parents" in text


def _two_singletons(attrs_a, attrs_b, name_a="A", name_b="B"):
    first = SchemaBuilder("x").entity(name_a, attrs=attrs_a).build(validate=False)
    second = SchemaBuilder("y").entity(name_b, attrs=attrs_b).build(validate=False)
    registry = EquivalenceRegistry([first, second])
    network = AssertionNetwork()
    network.seed_schema(first)
    network.seed_schema(second)
    return registry, network


class TestFigure2Catalogue:
    """One test per assertion type, mirroring Figures 2a-2e."""

    def test_2a_equals(self):
        registry, network = _two_singletons(
            [("Name", "char", True)], [("Name", "char", True)],
            "Department", "Department",
        )
        registry.declare_equivalent("x.Department.Name", "y.Department.Name")
        network.specify(
            ObjectRef("x", "Department"), ObjectRef("y", "Department"), 1
        )
        result = integrate_pair(registry, network, "x", "y")
        assert [e.name for e in result.schema.entity_sets()] == ["E_Department"]
        assert result.schema.categories() == []

    def test_2b_contains(self):
        registry, network = _two_singletons(
            [("Name", "char", True)], [("Name", "char", True), ("Thesis", "char")],
            "Student", "Grad_student",
        )
        registry.declare_equivalent("x.Student.Name", "y.Grad_student.Name")
        network.specify(
            ObjectRef("x", "Student"), ObjectRef("y", "Grad_student"), 3
        )
        result = integrate_pair(registry, network, "x", "y")
        grad = result.schema.category("Grad_student")
        assert grad.parents == ["Student"]
        assert grad.attribute_names() == ["Thesis"]
        assert "D_Name" in result.schema.entity_set("Student").attribute_names()

    def test_2c_may_be(self):
        registry, network = _two_singletons(
            [("Name", "char", True)], [("Name", "char", True)],
            "Grad_student", "Instructor",
        )
        network.specify(
            ObjectRef("x", "Grad_student"), ObjectRef("y", "Instructor"), 5
        )
        result = integrate_pair(registry, network, "x", "y")
        assert "D_Grad_Inst" in result.schema.structure_names()
        assert result.schema.category("Grad_student").parents == ["D_Grad_Inst"]
        assert result.schema.category("Instructor").parents == ["D_Grad_Inst"]

    def test_2d_disjoint_integrable(self):
        registry, network = _two_singletons(
            [("Name", "char", True)], [("Name", "char", True)],
            "Secretary", "Engineer",
        )
        network.specify(
            ObjectRef("x", "Secretary"), ObjectRef("y", "Engineer"), 4
        )
        result = integrate_pair(registry, network, "x", "y")
        assert "D_Secr_Engi" in result.schema.structure_names()

    def test_2e_disjoint_nonintegrable(self):
        registry, network = _two_singletons(
            [("Name", "char", True)], [("Name", "char", True)],
            "Under_Grad_Student", "Full_Professor",
        )
        network.specify(
            ObjectRef("x", "Under_Grad_Student"),
            ObjectRef("y", "Full_Professor"),
            0,
        )
        result = integrate_pair(registry, network, "x", "y")
        names = result.schema.structure_names()
        assert names == ["Under_Grad_Student", "Full_Professor"]
        assert result.schema.categories() == []


class TestOptions:
    def test_pull_up_shared_attributes(self):
        registry, network = _two_singletons(
            [("Name", "char", True)], [("Name", "char", True)],
            "Secretary", "Engineer",
        )
        registry.declare_equivalent("x.Secretary.Name", "y.Engineer.Name")
        network.specify(
            ObjectRef("x", "Secretary"), ObjectRef("y", "Engineer"), 4
        )
        result = integrate_pair(
            registry,
            network,
            "x",
            "y",
            options=IntegrationOptions(pull_up_shared_attributes=True),
        )
        parent = result.schema.get("D_Secr_Engi")
        assert parent.attribute_names() == ["D_Name"]
        assert result.schema.get("Secretary").attributes == []

    def test_default_keeps_attributes_on_children(self):
        registry, network = _two_singletons(
            [("Name", "char", True)], [("Name", "char", True)],
            "Secretary", "Engineer",
        )
        registry.declare_equivalent("x.Secretary.Name", "y.Engineer.Name")
        network.specify(
            ObjectRef("x", "Secretary"), ObjectRef("y", "Engineer"), 4
        )
        result = integrate_pair(registry, network, "x", "y")
        assert result.schema.get("D_Secr_Engi").attributes == []
        assert result.schema.get("Secretary").attribute_names() == ["Name"]

    def test_tight_cardinality_merge(self, registry, object_network,
                                     relationship_network):
        result = Integrator(
            registry,
            object_network,
            relationship_network,
            IntegrationOptions(merge_cardinalities_loosely=False),
        ).integrate("sc1", "sc2")
        majors = result.schema.relationship_set("E_Stud_Majo")
        assert str(majors.participation_for("Student").cardinality) == "(1,1)"


class TestEdgeCases:
    def test_name_clash_between_unrelated_structures(self):
        registry, network = _two_singletons(
            [("Id", "char", True)], [("Code", "char", True)],
            "Course", "Course",
        )
        result = integrate_pair(registry, network, "x", "y")
        names = result.schema.structure_names()
        assert names == ["Course", "Course_2"]
        assert result.node_for(ObjectRef("y", "Course")) == "Course_2"

    def test_unknown_ref_raises(self, paper_result):
        with pytest.raises(IntegrationError):
            paper_result.node_for("zz.Nope")
        with pytest.raises(IntegrationError):
            paper_result.attribute_for("zz.Nope.attr")
        with pytest.raises(IntegrationError):
            paper_result.components_of("Nothing")
        with pytest.raises(IntegrationError):
            paper_result.component_attributes("Student", "Nope")

    def test_transitive_chain_collapses_to_covering_edges(self):
        first = (
            SchemaBuilder("x")
            .entity("Person", attrs=[("Name", "char", True)])
            .build()
        )
        second = (
            SchemaBuilder("y")
            .entity("Student", attrs=[("Name", "char", True)])
            .category("Grad", of="Student", attrs=[("T", "char")])
            .build()
        )
        registry = EquivalenceRegistry([first, second])
        network = AssertionNetwork()
        network.seed_schema(first)
        network.seed_schema(second)
        network.specify(
            ObjectRef("y", "Student"), ObjectRef("x", "Person"), 2
        )
        result = integrate_pair(registry, network, "x", "y")
        # Grad ⊂ Student ⊂ Person; derived Grad ⊂ Person must NOT produce
        # a direct edge Grad -> Person.
        assert result.schema.category("Grad").parents == ["Student"]
        assert result.schema.category("Student").parents == ["Person"]

    def test_intra_schema_equals_merge(self):
        first = (
            SchemaBuilder("x")
            .entity("Staff", attrs=[("Id", "char", True)])
            .entity("Employee", attrs=[("Id", "char", True)])
            .build()
        )
        second = SchemaBuilder("y").entity(
            "Other", attrs=[("Id", "char", True)]
        ).build()
        registry = EquivalenceRegistry([first, second])
        registry.declare_equivalent("x.Staff.Id", "x.Employee.Id")
        network = AssertionNetwork()
        network.seed_schema(first)
        network.seed_schema(second)
        network.specify(ObjectRef("x", "Staff"), ObjectRef("x", "Employee"), 1)
        result = integrate_pair(registry, network, "x", "y")
        assert "E_Staf_Empl" in result.schema.structure_names()


class TestOnePassPerCall:
    """Each integrate sorts the network's assertions once and shares the
    list among its passes; nothing of it may survive into the next call."""

    def test_second_call_sees_an_assertion_specified_in_between(self):
        key = [("K", "char", True)]
        registry = EquivalenceRegistry(
            [
                SchemaBuilder("s1").entity("Person", attrs=key).build(),
                SchemaBuilder("s2").entity("Employee", attrs=key).build(),
            ]
        )
        network = AssertionNetwork()
        for schema in registry.schemas():
            network.seed_schema(schema)
        integrator = Integrator(registry, network)
        before = integrator.integrate("s1", "s2")
        assert [e.name for e in before.schema.entity_sets()] == [
            "Person",
            "Employee",
        ]
        network.specify("s2.Employee", "s1.Person", AssertionKind.CONTAINED_IN)
        after = integrator.integrate("s1", "s2")
        assert [e.name for e in after.schema.entity_sets()] == ["Person"]
        assert after.schema.category("Employee").parents == ["Person"]


def test_string_keyed_sorts_keep_the_dataclass_order():
    """On a generated 114-class world, the ranked candidates and the
    derived assertions come out in ``ObjectRef`` dataclass order."""
    from repro.equivalence.session import AnalysisSession
    from repro.errors import ConflictError

    pair = generate_schema_pair(
        GeneratorConfig(
            seed=1000, concepts=34, overlap=0.6, category_rate=1.0,
            contradictions=2,
        )
    )
    assert len(pair.first) + len(pair.second) == 114
    session = AnalysisSession([pair.first, pair.second])
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    ranked = session.candidate_pairs(
        pair.first.name, pair.second.name, include_zero=True
    )
    assert ranked == sorted(
        ranked,
        key=lambda candidate: (
            -candidate.attribute_ratio, candidate.first, candidate.second
        ),
    )
    network = session.object_network
    for candidate in ranked:
        if network.is_undetermined(candidate.first, candidate.second):
            kind = pair.truth.assertion_between(candidate.first, candidate.second)
            try:
                session.specify(candidate.first, candidate.second, kind)
            except ConflictError:
                pass
    derived = network.derived_assertions()
    assert len(derived) > 1000
    assert derived == sorted(derived, key=lambda assertion: assertion.pair)


# -- golden integration digests ---------------------------------------------------

#: SHA-256 of each world's integration output, recorded at commit e52a8be,
#: before Phase 4 read its assertions off the network's mask rows.  The
#: output must stay byte-identical: a change here is a behaviour change.
GOLDEN_DIGESTS = {
    "paper": "11924ccca0fe8a7847bb5441d5aaf4a7556f2cd30ac72651950cae82f58898df",
    3: "7fe7e28a912305c1cfadcc1ad7459126e93a8ff7745eeea76eab2b313408c256",
    11: "1239fe52a4da1b050613dfc50d339b6770e6508bbd9b3b89bf7c7527c1828a24",
    29: "746cf7601e45f50e8a9325cfc360b7155f59e0ae8af6757657fd5f56b7036619",
}


def integration_digest(result) -> str:
    """One digest over the schema fingerprint, log, object and attribute
    mappings, nodes and relationship lattice, in their own orders."""
    payload = {
        "schema": schema_fingerprint(result.schema),
        "log": result.log,
        "objects": [[str(k), v] for k, v in result.object_mapping.items()],
        "attributes": [
            [str(k), list(v)] for k, v in result.attribute_mapping.items()
        ],
        "nodes": [
            [name, node.origin, [str(c) for c in node.components]]
            for name, node in result.nodes.items()
        ],
        "relationship_lattice": [list(e) for e in result.relationship_lattice],
    }
    return hashlib.sha256(
        json.dumps(payload, separators=(",", ":")).encode()
    ).hexdigest()


def _generated_world_result(seed):
    """Truth assertions specified (plus a relationship overlap and a
    relationship containment), then one DDA assertion retracted."""
    from repro.equivalence.session import AnalysisSession

    pair = generate_schema_pair(
        GeneratorConfig(
            seed=seed, concepts=10, overlap=0.7, category_rate=0.5,
            shared_relationship_rate=0.6, equal_rate=0.3, contain_rate=0.3,
            overlap_rate=0.2,
        )
    )
    session = AnalysisSession([pair.first, pair.second])
    for left, right in sorted(pair.truth.attribute_pairs):
        session.declare_equivalent(left, right)
    for (first, second), kind in sorted(pair.truth.object_assertions.items()):
        session.specify(first, second, kind)
    for (first, second), kind in sorted(
        pair.truth.relationship_assertions.items()
    ):
        session.specify(first, second, kind, relationships=True)
    free = [
        [
            ref
            for ref in session.relationship_network.objects()
            if ref.schema == schema.name
            and not any(
                ref in key for key in pair.truth.relationship_assertions
            )
        ]
        for schema in (pair.first, pair.second)
    ]
    session.specify(
        free[0][0], free[1][0], AssertionKind.MAY_BE, relationships=True
    )
    session.specify(
        free[0][1], free[1][1], AssertionKind.CONTAINED_IN, relationships=True
    )
    answered = [
        assertion
        for assertion in session.object_network.specified_assertions()
        if assertion.source is Source.DDA
    ]
    target = answered[len(answered) // 2]
    session.retract(target.first, target.second)
    return session.integrate(pair.first.name, pair.second.name)


def test_paper_world_matches_its_golden_digest(paper_result):
    assert integration_digest(paper_result) == GOLDEN_DIGESTS["paper"]


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_generated_world_matches_its_golden_digest(seed):
    result = _generated_world_result(seed)
    assert result.derived_parent_nodes()
    assert integration_digest(result) == GOLDEN_DIGESTS[seed]
