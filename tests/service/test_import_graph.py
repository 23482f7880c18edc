"""The server starts on the modules it serves, and serving loads no more.

A fresh interpreter imports ``repro.service.__main__``, then drives a
session through an in-process :class:`ServiceApp`: create it, adopt both
paper schemas, declare an equivalence, undo it, ask for suggestions and
read the session back.  After the import, and again after that
lifecycle, none of the subsystems the service never runs may be loaded.
The paper DDL comes from this process, so the child never imports
:mod:`repro.workloads` itself.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.ecr.ddl import to_ddl
from repro.workloads.university import build_sc1, build_sc2

#: modules the service never needs; any of them loaded is a regression
NOT_SERVED = (
    "repro.federation",
    "repro.query",
    "repro.translate",
    "repro.data",
    "repro.tool.app",
    "repro.tool.screens",
    "repro.workloads",
    "repro.baselines",
    "repro.analysis",
    "sqlite3",
    "ssl",
)

CHILD = r"""
import json
import sys
import tempfile
from pathlib import Path

import repro.service.__main__

not_served, sc1_ddl, sc2_ddl = json.loads(sys.stdin.read())


def loaded():
    return sorted(name for name in not_served if name in sys.modules)


after_import = loaded()

from repro.service import Request, ServiceApp, TenantAuth

statuses = []
with tempfile.TemporaryDirectory() as root:
    app = ServiceApp(Path(root), auth=TenantAuth.from_tokens({"tok": "acme"}))
    try:
        def call(method, path, body=None, query=None):
            response = app.dispatch(
                Request(
                    method=method,
                    path=path,
                    query=query or {},
                    headers={"authorization": "Bearer tok"},
                    body=json.dumps(body).encode() if body is not None else b"",
                )
            )
            statuses.append(response.status)

        call("POST", "/v1/sessions", {"session_id": "s1"})
        call("POST", "/v1/sessions/s1/schemas", {"ddl": sc1_ddl})
        call("POST", "/v1/sessions/s1/schemas", {"ddl": sc2_ddl})
        call(
            "POST",
            "/v1/sessions/s1/equivalences",
            {"first": "sc1.Student.Name", "second": "sc2.Grad_student.Name"},
        )
        call("POST", "/v1/sessions/s1/undo")
        call(
            "GET",
            "/v1/sessions/s1/suggestions",
            query={"first": "sc1", "second": "sc2"},
        )
        call("GET", "/v1/sessions/s1")
    finally:
        app.close()

print(json.dumps(
    {"import": after_import, "lifecycle": loaded(), "statuses": statuses}
))
"""


def test_serving_loads_no_unserved_subsystem():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH", "")]
    )
    child = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(
            [NOT_SERVED, to_ddl(build_sc1()), to_ddl(build_sc2())]
        ),
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert report["statuses"] == [201, 201, 201, 201, 200, 200, 200]
    assert report["import"] == []
    assert report["lifecycle"] == []
