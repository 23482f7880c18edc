"""The shared benchmark harness: gate records, exit codes, percentiles.

Also pins the shape every committed ``BENCH_*.json`` must keep: a
``repro_sha`` stamp and a ``gates`` table whose entries say whether they
passed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import harness  # noqa: E402

BENCH_FILES = sorted(REPO_ROOT.glob("BENCH_*.json"))


class TestGateRecord:
    def test_failing_gate_is_recorded_and_exits_nonzero(self, tmp_path):
        gates = harness.Gates()
        gates.at_most("latency", 2.5, 1.0)
        gates.at_least("tenants", 20, 16)
        path = tmp_path / "BENCH_example.json"
        assert harness.write_record(path, {"measured": 1}, gates) == 1
        record = json.loads(path.read_text())
        assert record["measured"] == 1
        assert record["repro_sha"]
        assert record["gates"]["latency"] == {
            "value": 2.5, "limit": 1.0, "passed": False,
        }
        assert record["gates"]["tenants"]["passed"] is True

    def test_passing_gates_exit_zero(self, tmp_path):
        gates = harness.Gates()
        gates.equal("divergent", 0, 0)
        gates.holds("converged", True)
        path = tmp_path / "BENCH_example.json"
        assert harness.write_record(path, {}, gates) == 0
        assert all(
            gate["passed"]
            for gate in json.loads(path.read_text())["gates"].values()
        )

    def test_section_write_keeps_the_rest_of_the_file(self, tmp_path):
        path = tmp_path / "BENCH_example.json"
        path.write_text(json.dumps({"owned_elsewhere": 7}))
        gates = harness.Gates()
        gates.at_least("streamed", 0, 1)
        assert harness.write_record(path, {"n": 0}, gates, section="s") == 1
        whole = json.loads(path.read_text())
        assert whole["owned_elsewhere"] == 7
        assert whole["s"]["gates"]["streamed"]["passed"] is False
        assert whole["s"]["repro_sha"]


class TestPercentile:
    @pytest.mark.parametrize(
        ("fraction", "expected"),
        [(0.0, 1), (0.01, 1), (0.5, 50), (0.95, 95), (0.99, 99), (1.0, 100)],
    )
    def test_nearest_rank_on_one_to_hundred(self, fraction, expected):
        values = list(range(100, 0, -1))  # order must not matter
        assert harness.percentile(values, fraction) == expected

    def test_small_samples(self):
        assert harness.percentile([7.0], 0.99) == 7.0
        assert harness.percentile([3.0, 1.0, 2.0, 4.0], 0.5) == 2.0
        assert harness.percentile([3.0, 1.0, 2.0, 4.0], 0.75) == 3.0


def test_timed_reduces_repeats_and_returns_the_result():
    calls = []
    seconds, result = harness.timed(
        lambda: calls.append(1) or len(calls), repeats=3
    )
    assert result == 3 and len(calls) == 3
    assert seconds >= 0.0


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_committed_bench_file_is_stamped_and_gated(path):
    record = json.loads(path.read_text())
    assert isinstance(record["repro_sha"], str) and record["repro_sha"]
    assert isinstance(record["gates"], dict)
    for name, gate in record["gates"].items():
        assert set(gate) == {"value", "limit", "passed"}, name
        assert isinstance(gate["passed"], bool), name
