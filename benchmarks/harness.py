"""The plumbing every ``record_*.py`` recorder shares.

A recorder is a workload definition: it builds a world, measures it,
checks its gates and hands the record to :func:`write_record`, which
stamps it with the commit it measured (``repro_sha``), writes the
``"gates": {name: {"value", "limit", "passed"}}`` table next to the
measurements and turns a failed gate into a non-zero exit.

Also here, so each exists once: a nearest-rank :func:`percentile`, the
:func:`timed` min-of-N wall clock, the real ``/v1`` :class:`Service`
(in-thread, or as a subprocess), a keep-alive :class:`HttpClient`, an
:class:`SseStream` reader, and the small worlds several recorders
measure (the EXP-CLO closure, the paper's declarations, the sc1-shaped
federation component and its Figure 5 mapping, the compact sc1/sc2 DDL).
"""

from __future__ import annotations

import json
import math
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.assertions.kinds import Source  # noqa: E402
from repro.baselines.closure_baselines import (  # noqa: E402
    drive_assertions_with_closure,
)
from repro.ecr.builder import SchemaBuilder  # noqa: E402
from repro.integration.mappings import SchemaMapping  # noqa: E402
from repro.service import ServiceApp, TenantAuth  # noqa: E402
from repro.service.app import serve  # noqa: E402
from repro.workloads.generator import (  # noqa: E402
    GeneratorConfig,
    generate_schema_pair,
)


# -- stamp, gates, record ----------------------------------------------------


def repo_sha() -> str:
    """The repo's HEAD SHA, or ``unknown`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


class Gates:
    """A record's gate table: ``{name: {"value", "limit", "passed"}}``."""

    def __init__(self) -> None:
        self.table: dict[str, dict[str, Any]] = {}

    def at_most(self, name: str, value, limit) -> None:
        self._add(name, value, limit, value <= limit)

    def at_least(self, name: str, value, limit) -> None:
        self._add(name, value, limit, value >= limit)

    def equal(self, name: str, value, limit) -> None:
        self._add(name, value, limit, value == limit)

    def holds(self, name: str, value: bool) -> None:
        self.equal(name, bool(value), True)

    def _add(self, name: str, value, limit, passed: bool) -> None:
        value, limit = (
            round(x, 6) if isinstance(x, float) else x for x in (value, limit)
        )
        self.table[name] = {"value": value, "limit": limit, "passed": passed}

    def verdict(self, label: str) -> int:
        """Print the table; 1 if any gate failed (the process exit code)."""
        failed = []
        for name, gate in self.table.items():
            mark = "ok  " if gate["passed"] else "FAIL"
            print(f"  {mark} {name}: {gate['value']} (limit {gate['limit']})")
            if not gate["passed"]:
                failed.append(name)
        if failed:
            print(
                f"{label}: GATE FAILURE: {', '.join(failed)}", file=sys.stderr
            )
            return 1
        return 0


def write_record(
    path: Path, record: dict, gates: Gates, *, section: str | None = None
) -> int:
    """Stamp and write ``record`` with its gate table; the exit code.

    With ``section`` the record replaces only that key of the file, so two
    recorders can share one ``BENCH_*.json``.
    """
    record = {"repro_sha": repo_sha(), **record, "gates": gates.table}
    if section is not None:
        whole = json.loads(path.read_text()) if path.exists() else {}
        whole[section] = record
        record = whole
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {path.name}")
    return gates.verdict(path.stem if section is None else section)


# -- statistics and timing ---------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest rank: the least value with ``fraction`` of them at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def timed(
    call: Callable[[], Any], *, repeats: int = 1, reduce=min
) -> tuple[float, Any]:
    """``(reduce(wall seconds of each repeat), the last call's result)``.

    The default reduction is the minimum: contention only ever adds time,
    so the quietest repeat is the closest to the true cost.
    """
    samples = []
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = call()
        samples.append(time.perf_counter() - started)
    return reduce(samples), result


# -- the live service ---------------------------------------------------------


class Service:
    """The real ``/v1`` server on a free loopback port, until :meth:`stop`.

    ``tokens`` maps bearer token -> tenant.  In-thread by default, so the
    caller can reach ``self.app``.  ``process=True`` runs
    ``python -m repro.service`` instead: servers sharing one interpreter
    contend on the GIL and smear each other's timings, so side-by-side
    servers whose latencies are compared need a process each.
    """

    def __init__(
        self,
        root: Path | str,
        tokens: dict[str, str],
        *,
        process: bool = False,
        telemetry: bool = True,
        max_resident: int = 8,
        executor_workers: int = 8,
    ) -> None:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            self.port = probe.getsockname()[1]
        self.app = self.proc = None
        if process:
            self._spawn(root, tokens, telemetry, max_resident)
        else:
            self._serve(
                root, tokens, telemetry, max_resident, executor_workers
            )

    def _spawn(self, root, tokens, telemetry, max_resident) -> None:
        argv = [
            sys.executable, "-m", "repro.service",
            "--root", str(root),
            "--port", str(self.port),
            "--max-resident", str(max_resident),
            "--log-level", "warning",
        ]
        for token, tenant in tokens.items():
            argv += ["--token", f"{tenant}:{token}"]
        if not telemetry:
            argv.append("--no-telemetry")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")]
        )
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        deadline = time.time() + 30
        while True:
            try:
                client = HttpClient(self.port)
                status, _ = client.request("GET", "/v1/healthz")
                client.close()
                if status == 200:
                    return
            except OSError:
                pass
            if self.proc.poll() is not None or time.time() > deadline:
                self.stop()
                raise RuntimeError("service process never became ready")
            time.sleep(0.05)

    def _serve(self, root, tokens, telemetry, max_resident, workers) -> None:
        self.app = ServiceApp(
            root,
            auth=TenantAuth.from_tokens(tokens),
            max_resident=max_resident,
            telemetry=telemetry,
        )
        self.server = serve(
            self.app, "127.0.0.1", self.port, executor_workers=workers
        )

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
            return
        self.server.stop()
        self.app.close()

    def __enter__(self) -> "Service":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class HttpClient:
    """One keep-alive HTTP/1.1 connection to a loopback server."""

    def __init__(self, port: int, token: str | None = None) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.token = token
        self.buffer = b""

    def request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        headers: dict[str, str] | None = None,
    ) -> tuple[int, bytes]:
        payload = json.dumps(body).encode("utf-8") if body is not None else b""
        head = [f"{method} {path} HTTP/1.1", "host: bench"]
        if self.token:
            head.append(f"authorization: Bearer {self.token}")
        head += [f"{name}: {value}" for name, value in (headers or {}).items()]
        if payload:
            head.append(f"content-length: {len(payload)}")
        self.sock.sendall(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload
        )
        while b"\r\n\r\n" not in self.buffer:
            self._receive()
        raw_head, _, self.buffer = self.buffer.partition(b"\r\n\r\n")
        length = 0
        for line in raw_head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self.buffer) < length:
            self._receive()
        data, self.buffer = self.buffer[:length], self.buffer[length:]
        return int(raw_head.split()[1]), data

    def _receive(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.buffer += chunk

    def close(self) -> None:
        self.sock.close()


class SseStream:
    """One live SSE subscription, read on a thread until the server ends it."""

    def __init__(self, port: int, path: str, token: str) -> None:
        self.path = path
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.sendall(
            (
                f"GET {path} HTTP/1.1\r\nhost: bench\r\n"
                f"authorization: Bearer {token}\r\n\r\n"
            ).encode("latin-1")
        )
        self._chunks: list[bytes] = []
        self._opened = threading.Event()
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()
        if not self._opened.wait(timeout=30):
            raise RuntimeError(f"stream {path} never opened")

    def _read(self) -> None:
        seen = b""
        try:
            while chunk := self.sock.recv(65536):
                self._chunks.append(chunk)
                if not self._opened.is_set():
                    seen += chunk
                    if b": stream open" in seen:
                        self._opened.set()
        except OSError:
            return

    def close(self) -> None:
        """Hang up without waiting for the server to end the stream."""
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._thread.join(timeout=10)

    def frames(self, timeout: float = 120.0) -> list[dict]:
        """Every ``event``/``data`` frame, once the server has closed."""
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(f"stream {self.path} did not terminate")
        _, _, payload = b"".join(self._chunks).partition(b"\r\n\r\n")
        frames = []
        for block in payload.decode("utf-8").split("\n\n"):
            block = block.strip()
            if not block or block.startswith(":"):
                continue
            frame = dict(
                line.partition(": ")[::2] for line in block.splitlines()
            )
            if "data" in frame:
                frame["data"] = json.loads(frame["data"])
            frames.append(frame)
        return frames


# -- shared worlds ------------------------------------------------------------

#: the EXP-CLO pair of ``bench_exp_closure.py``
EXP_CLO = GeneratorConfig(seed=17, concepts=16, overlap=0.6, category_rate=0.5)

#: the paper's Screen 7 attribute equivalences
PAPER_DECLARATIONS = [
    ("sc1.Student.Name", "sc2.Grad_student.Name"),
    ("sc1.Student.Name", "sc2.Faculty.Name"),
    ("sc1.Student.GPA", "sc2.Grad_student.GPA"),
    ("sc1.Department.Name", "sc2.Department.Name"),
    ("sc1.Majors.Since", "sc2.Majors.Since"),
]

#: a compact sc1/sc2 pair in the service's DDL
SC1_DDL = """\
schema sc1
entity Student
  attr Name : string key
  attr GPA : real
entity Department
  attr Name : string key
relationship Majors
  connects Student (1,1)
  connects Department (0,n)
"""

SC2_DDL = """\
schema sc2
entity Grad_student
  attr Name : string key
  attr Advisor : string
entity Department
  attr Name : string key
"""


def schema_sizes(*schemas) -> list[dict]:
    """Per-schema size metadata: object classes and attribute counts."""
    return [
        {
            "name": schema.name,
            "object_classes": len(schema),
            "attributes": schema.attribute_count(),
        }
        for schema in schemas
    ]


def exp_clo_closure():
    """The EXP-CLO pair driven to closure: ``(pair, network, target)``.

    ``target`` is the middle DDA-specified assertion, the one the
    single-retract measurements take back.
    """
    pair = generate_schema_pair(EXP_CLO)
    network, _ = drive_assertions_with_closure(
        pair.first, pair.second, pair.truth
    )
    specified = [
        a for a in network.specified_assertions() if a.source is Source.DDA
    ]
    return pair, network, specified[len(specified) // 2]


def incremental_baseline() -> dict:
    """One incremental retract on EXP-CLO: the yardstick of overhead gates."""
    _, network, target = exp_clo_closure()
    seconds, _ = timed(lambda: network.retract(target.first, target.second))
    return {
        "workload": "bench_exp_closure (concepts=16, one retract)",
        "seconds": round(seconds, 6),
    }


def component_schema(name: str, *, course: bool = False):
    """An sc1-shaped federation component, optionally with a local Course."""
    builder = (
        SchemaBuilder(name, "benchmark component")
        .entity("Student", attrs=[("Name", "char", True), ("GPA", "real")])
        .entity("Department", attrs=[("Name", "char", True)])
    )
    if course:
        builder.entity("Course", attrs=[("CNo", "integer", True)])
    return builder.relationship(
        "Majors",
        connects=[("Student", "(1,1)"), ("Department", "(0,n)")],
        attrs=[("Since", "date")],
    ).build()


def component_mapping(name: str, integrated_name: str) -> SchemaMapping:
    """The Figure 5 mapping of one sc1-shaped component."""
    return SchemaMapping(
        component_schema=name,
        integrated_schema=integrated_name,
        objects={
            "Student": "Student",
            "Department": "E_Department",
            "Majors": "E_Stud_Majo",
        },
        attributes={
            ("Student", "Name"): ("Student", "D_Name"),
            ("Student", "GPA"): ("Student", "D_GPA"),
            ("Department", "Name"): ("E_Department", "D_Name"),
            ("Majors", "Since"): ("E_Stud_Majo", "D_Since"),
        },
    )
