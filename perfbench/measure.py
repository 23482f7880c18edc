"""Shared measurement helpers: quantiles, memory, device calibration."""

from __future__ import annotations

import os
import resource
import statistics
import time
from pathlib import Path


def quantile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) of ``values``, interpolated."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    return cuts[round(q * 1000) - 1]


def block_medians(
    finished: list[float], latencies: list[float], start: float, end: float,
    blocks: int,
) -> dict[str, float]:
    """Medians over equal time blocks of p50, p99 and completions per second.

    A noise burst on the shared machine then moves one block, not the
    run's figures.
    """
    width = (end - start) / blocks
    groups: list[list[float]] = [[] for _ in range(blocks)]
    for done, latency in zip(finished, latencies):
        groups[min(blocks - 1, int((done - start) / width))].append(latency)
    groups = [group for group in groups if len(group) > 1]
    rates = [len(group) / width for group in groups]
    return {
        "p50": statistics.median(quantile(group, 0.50) for group in groups),
        "p99": statistics.median(quantile(group, 0.99) for group in groups),
        "rate": statistics.median(rates),
        "block_rates": [round(rate, 1) for rate in rates],
    }


def split_cpus() -> tuple[set[int], set[int]]:
    """One CPU for the benchmark process, the next for the service process.

    Left to migrate, the two contend for one core and run-to-run spread
    grows (see README.md).  With a single CPU nothing is pinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(), set()
    return {cpus[0]}, {cpus[1]}


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def filesystem_type(path: Path) -> str:
    """The type of the filesystem holding ``path`` (longest mount prefix)."""
    target = str(path.resolve())
    best, kind = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def calibrate_device(directory: Path, samples: int = 5) -> dict[str, object]:
    """Filesystem type plus median ``fsync`` and ``os.replace`` latency.

    The replace probe renames a fsynced file over another fsynced file,
    which is what every checkpoint does; on some disks freeing the old
    file's blocks is what costs.
    """
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / "calibrate.dat"
    fsyncs: list[float] = []
    replaces: list[float] = []

    def write_synced(path: Path) -> None:
        with open(path, "wb") as handle:
            handle.write(os.urandom(4096))
            handle.flush()
            started = time.perf_counter()
            os.fsync(handle.fileno())
            fsyncs.append(time.perf_counter() - started)

    write_synced(target)
    for _ in range(samples):
        temporary = directory / "calibrate.tmp"
        write_synced(temporary)
        started = time.perf_counter()
        os.replace(temporary, target)
        replaces.append(time.perf_counter() - started)
    target.unlink()
    return {
        "fs_type": filesystem_type(directory),
        "fsync_ms": round(1e3 * statistics.median(fsyncs), 4),
        "replace_ms": round(1e3 * statistics.median(replaces), 4),
    }
