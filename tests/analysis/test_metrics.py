"""Tests for analysis metrics."""

from repro.analysis.metrics import integration_effort, schema_size
from repro.workloads.university import build_sc2


class TestSchemaSize:
    def test_counts(self):
        size = schema_size(build_sc2())
        assert size.entities == 3
        assert size.categories == 0
        assert size.relationships == 2
        assert size.attributes == 9
        assert size.structures == 5

    def test_as_row(self):
        assert schema_size(build_sc2()).as_row() == [3, 0, 2, 9]


class TestEffort:
    def test_paper_effort(self, object_network, paper_result):
        effort = integration_effort(object_network, paper_result)
        assert effort.dda_assertions == 3
        assert effort.implicit_assertions == 0
        assert effort.derived_assertions >= 1
        assert effort.equivalent_merges == 2
        assert effort.derived_parents == 1
        assert effort.derived_attributes == 4
        assert effort.automation_ratio > 0

    def test_zero_dda_ratio(self, paper_result):
        from repro.assertions.network import AssertionNetwork

        empty = AssertionNetwork()
        effort = integration_effort(empty, paper_result)
        assert effort.automation_ratio == 0.0


class TestDerivedCount:
    """``integration_effort`` counts derived pairs off the mask rows."""

    def test_paper_world(self, object_network, paper_result):
        effort = integration_effort(object_network, paper_result)
        assert effort.derived_assertions == len(
            object_network.derived_assertions()
        )
        assert object_network.derived_count() == effort.derived_assertions

    def test_finished_generated_world(self):
        from repro.equivalence.session import AnalysisSession
        from repro.workloads.generator import (
            GeneratorConfig,
            generate_schema_pair,
        )

        pair = generate_schema_pair(
            GeneratorConfig(
                seed=1000, concepts=34, overlap=0.6, category_rate=1.0
            )
        )
        session = AnalysisSession([pair.first, pair.second])
        for left, right in sorted(pair.truth.attribute_pairs):
            session.declare_equivalent(left, right)
        network = session.object_network
        for candidate in session.candidate_pairs(
            pair.first.name, pair.second.name, include_zero=True
        ):
            if network.is_undetermined(candidate.first, candidate.second):
                session.specify(
                    candidate.first,
                    candidate.second,
                    pair.truth.assertion_between(
                        candidate.first, candidate.second
                    ),
                )
        result = session.integrate(pair.first.name, pair.second.name)
        derived = len(network.derived_assertions())
        assert derived > 1000
        assert integration_effort(network, result).derived_assertions == derived
        # a removed node's pairs leave both the list and the count
        network.remove_object(network.specified_assertions()[-1].first)
        assert network.derived_count() == len(network.derived_assertions())
