"""Smoke test of the benchmark itself: every workload at tiny size.

Run from the repository root::

    python3 perfbench/smoke.py

For each workload, untraced and traced, it runs the real entry point
(:func:`run.main`) with small worlds and short request counts, and
asserts that the last line is the result object, that every output check
passed, and that every metric named in ``BENCHMARK.json`` is emitted with
its unit (``service_churn``, which ``BENCHMARK.json`` leaves out, must
emit the same names).  Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import service  # noqa: E402
import sitting  # noqa: E402


def expected_units(spec: dict, trace: int) -> dict[str, str]:
    key = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[key]}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    run.SCRATCH = run.SCRATCH / "smoke"
    sitting.CONCEPTS = 14
    sitting.TRACED_SITTINGS = 1
    for name, shape in service.SHAPES.items():
        service.SHAPES[name] = dataclasses.replace(
            shape, warmup=4, traced_requests=6
        )
    try:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    status = run.main([
                        "--workload", workload, "--seed", "3",
                        "--seconds", "0.5", "--trace", str(trace),
                    ])
                result = json.loads(out.getvalue().strip().splitlines()[-1])
                emitted = {
                    name: entry["unit"] for name, entry in result["metrics"].items()
                }
                problems = []
                if status != 0:
                    problems.append(f"exit status {status}")
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if not result["correct"] or result["failed"] or result["attempted"] < 1:
                    problems.append(f"checks failed: {out.getvalue().splitlines()[0]}")
                if emitted != expected_units(spec, trace):
                    problems.append(f"metrics {emitted}")
                label = f"{workload} --trace {trace}"
                if problems:
                    print(f"FAIL {label}: {'; '.join(problems)}")
                    return 1
                print(f"ok   {label}: {len(emitted)} metrics")
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
