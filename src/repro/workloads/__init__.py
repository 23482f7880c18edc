"""Workloads: the paper's example schemas plus synthetic generators.

* :mod:`repro.workloads.university` — the paper's own schemas sc1/sc2
  (Figures 3-4), the Screen 9 schemas sc3/sc4, the equivalences and
  assertions of Screens 7-8, and the expected integrated schema of
  Figure 5.
* :mod:`repro.workloads.domains` — two richer domain workloads (a hospital
  federation and airline user views) exercising the same pipeline.
* :mod:`repro.workloads.generator` — a seeded synthetic ECR schema-pair
  generator with controllable size and overlap, plus the ground-truth
  correspondence oracle the experiments score against.
* :mod:`repro.workloads.oracle` — a scriptable "oracle DDA" that answers
  equivalence and assertion questions from a ground truth.
* :mod:`repro.workloads.evolution` — deterministic seeded schema-edit
  scripts with a guaranteed fraction of assertion-invalidating edits, the
  traffic generator behind the evolution benchmarks and properties.
* :mod:`repro.workloads.traffic` — seeded ``/v1`` service-call streams
  with an exact, tunable ``read_fraction``, driving the replication
  benchmarks' read-routing and lag measurements.
"""

from repro._lazy import lazy_exports

__all__ = [
    "build_sc1",
    "build_sc2",
    "build_sc3",
    "build_sc4",
    "paper_registry",
    "paper_assertions",
    "paper_candidate_pairs",
    "build_expected_figure5",
    "PAPER_ASSERTION_CODES",
    "GeneratorConfig",
    "GeneratedPair",
    "PlantedContradiction",
    "conflict_seeded_config",
    "generate_schema_pair",
    "EvolutionConfig",
    "ScriptedEdit",
    "evolution_script",
    "run_evolution_script",
    "GroundTruth",
    "OracleDda",
    "ServiceCall",
    "TrafficConfig",
    "service_traffic",
    "build_hospital_admissions",
    "build_hospital_clinic",
    "hospital_ground_truth",
    "build_airline_reservations",
    "build_airline_operations",
    "airline_ground_truth",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "build_sc1": "repro.workloads.university",
        "build_sc2": "repro.workloads.university",
        "build_sc3": "repro.workloads.university",
        "build_sc4": "repro.workloads.university",
        "paper_registry": "repro.workloads.university",
        "paper_assertions": "repro.workloads.university",
        "paper_candidate_pairs": "repro.workloads.university",
        "build_expected_figure5": "repro.workloads.university",
        "PAPER_ASSERTION_CODES": "repro.workloads.university",
        "GeneratorConfig": "repro.workloads.generator",
        "GeneratedPair": "repro.workloads.generator",
        "PlantedContradiction": "repro.workloads.generator",
        "conflict_seeded_config": "repro.workloads.generator",
        "generate_schema_pair": "repro.workloads.generator",
        "EvolutionConfig": "repro.workloads.evolution",
        "ScriptedEdit": "repro.workloads.evolution",
        "evolution_script": "repro.workloads.evolution",
        "run_evolution_script": "repro.workloads.evolution",
        "GroundTruth": "repro.workloads.oracle",
        "OracleDda": "repro.workloads.oracle",
        "ServiceCall": "repro.workloads.traffic",
        "TrafficConfig": "repro.workloads.traffic",
        "service_traffic": "repro.workloads.traffic",
        "build_hospital_admissions": "repro.workloads.domains",
        "build_hospital_clinic": "repro.workloads.domains",
        "hospital_ground_truth": "repro.workloads.domains",
        "build_airline_reservations": "repro.workloads.domains",
        "build_airline_operations": "repro.workloads.domains",
        "airline_ground_truth": "repro.workloads.domains",
    },
)
