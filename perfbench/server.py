"""Benchmark-owned entry point for the integration service.

Usage (the service workloads start it; it is not run by hand)::

    python3 perfbench/server.py [--trace-out FILE] -- <python -m repro.service args>

Without ``--trace-out`` this is exactly ``python -m repro.service``.  With
it, the layer wrappers of :mod:`layers` are installed before the app is
built, every request's span tree is kept in memory, and all of them are
written to ``FILE`` as JSON once the server has shut down (on SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main(argv: list[str]) -> int:
    trace_out = None
    if argv and argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    from repro.service.__main__ import main as service_main

    if trace_out is None:
        return service_main(argv)

    import layers

    sink = layers.SpanSink()
    layers.install_service(sink)
    status = service_main(argv)
    records = [layers.span_to_dict(span) for span in sink.spans]
    Path(trace_out).write_text(json.dumps({"spans": records}))
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
