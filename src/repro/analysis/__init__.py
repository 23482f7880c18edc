"""Metrics, instrumentation counters and report tables for experiments."""

from repro._lazy import lazy_exports

__all__ = [
    "AnalysisCounters",
    "schema_size",
    "SchemaSize",
    "integration_effort",
    "EffortReport",
    "diff_schemas",
    "Table",
    "integration_report",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "AnalysisCounters": "repro.obs.metrics",
        "schema_size": "repro.analysis.metrics",
        "SchemaSize": "repro.analysis.metrics",
        "integration_effort": "repro.analysis.metrics",
        "EffortReport": "repro.analysis.metrics",
        "diff_schemas": "repro.analysis.diff",
        "Table": "repro.analysis.report",
        "integration_report": "repro.analysis.trace",
    },
)
