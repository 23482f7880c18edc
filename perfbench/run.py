"""The repository benchmark: one command, every metric by name and unit.

Usage::

    python3 perfbench/run.py --workload sitting|service_hot|service_churn \\
        --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with the original,
unwrapped functions; ``--trace 1`` makes a separate, fixed-size run
with every layer's public functions wrapped and prints the per-layer
metrics.  The lines before the last describe the run for a reader; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Count-type per-layer metrics of a traced
run are kept under ``.perfbench/counts/`` and must repeat exactly when
the same workload runs again with the same seed.

See ``perfbench/README.md`` for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("sitting", "service_hot", "service_churn")
#: the seed a later claim is tuned on, and the one it must also hold on
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def source_digest() -> str:
    """SHA-256 over the program and benchmark source.

    Counts are compared only between runs of identical code.
    """
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counts(workload: str, seed: int, metrics: dict) -> list[str]:
    """Names of count metrics that differ from an earlier run of this seed."""
    import layers

    counts = layers.count_metrics(metrics)
    path = SCRATCH / "counts" / f"{workload}-{seed}-{source_digest()}.json"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(counts, sort_keys=True))
        return []
    earlier = json.loads(path.read_text())
    return sorted(name for name in counts if earlier.get(name) != counts[name])


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from measure import split_cpus

    client_cpus = split_cpus()[0]
    if client_cpus:
        # before any client thread starts, so every thread inherits it
        os.sched_setaffinity(0, client_cpus)
    scratch = SCRATCH / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        if args.workload == "sitting":
            import sitting

            result = sitting.run(args.seed, args.seconds, bool(args.trace))
        else:
            import service

            result = service.run(
                args.workload, args.seed, args.seconds, bool(args.trace), scratch
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report = result["report"]
    if args.trace:
        drifted = check_counts(args.workload, args.seed, result["metrics"])
        report["counts_drifted"] = drifted
        result["failed"] += len(drifted)
    report.update(
        workload=args.workload, seed=args.seed, held_out_seed=HELD_OUT_SEED,
        trace=args.trace,
    )
    print("report " + json.dumps(report, sort_keys=True, default=str))
    for name, (value, unit) in result["metrics"].items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


def pin_hash_seed(argv: list[str]) -> None:
    """Re-execute with ``PYTHONHASHSEED`` derived from ``--seed``.

    The closure's work depends on set iteration order, which follows
    the string hash seed; without this, counts such as
    ``closure.propagation_steps`` differ between runs of one seed.  The
    server process inherits the variable.
    """
    wanted = str(parse_args(argv).seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != wanted:
        env = dict(os.environ, PYTHONHASHSEED=wanted)
        os.execve(sys.executable, [sys.executable, __file__, *argv], env)


if __name__ == "__main__":
    pin_hash_seed(sys.argv[1:])
    raise SystemExit(main(sys.argv[1:]))
