"""Background jobs: submit → poll → progress streamed from tracer spans.

Long operations — a full integration, an audit replay that re-derives a
session's state from its event log — would hold an HTTP worker (and the
session lock) for their whole duration.  The :class:`JobQueue` runs them
on worker threads instead: ``POST`` returns ``202`` with a job id, and
``GET /v1/jobs/<id>`` polls state, explicit progress notes, and the
spans the :mod:`repro.obs` tracer has finished so far — a live view of
*where inside* the integration the job currently is.

While a job runs, the target session is **pinned** in the
:class:`~repro.service.manager.SessionManager`: auto-eviction skips it
and an explicit eviction is refused with
:class:`~repro.service.errors.SessionBusyError` — parking a kernel
mid-job would checkpoint a state the job is still mutating.

Every job runs under its **own** thread-local tracer
(:class:`~repro.obs.trace.use_tracer`), so concurrent jobs trace
independently, and carries the ``X-Request-Id`` of the request that
submitted it — bound to the worker thread while the job runs, so kernel
events and spans the job produces stream over SSE stamped with the same
id as the submitting request's access-log line.
"""

from __future__ import annotations

import queue
import secrets
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import ReplayError, ReproError
from repro.obs.telemetry import (
    current_request_id,
    new_request_id,
    set_request_id,
)
from repro.obs.trace import Tracer, use_tracer
from repro.service.errors import (
    BadRequestError,
    CapacityError,
    JobNotFoundError,
    JobStateError,
)
from repro.service.manager import SessionManager, state_fingerprint
from repro.tool.session import ToolSession

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.service.app import ServiceTelemetry

QUEUED = "queued"
RUNNING = "running"
SUCCEEDED = "succeeded"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a poll can observe; terminal ones never change again
JOB_STATES = (QUEUED, RUNNING, SUCCEEDED, FAILED, CANCELLED)
TERMINAL_STATES = frozenset({SUCCEEDED, FAILED, CANCELLED})


@dataclass
class Job:
    """One background job and everything a poll may want to see."""

    job_id: str
    tenant: str
    kind: str
    params: dict[str, Any]
    state: str = QUEUED
    created: float = field(default_factory=time.time)
    started: float | None = None
    finished: float | None = None
    result: dict[str, Any] | None = None
    error: dict[str, Any] | None = None
    #: explicit progress notes the handler appends as it goes
    progress: list[str] = field(default_factory=list)
    #: this job's private tracer (installed thread-locally while it runs)
    tracer: Tracer | None = None
    #: the ``X-Request-Id`` of the request that submitted the job
    request_id: str = ""

    def note(self, message: str) -> None:
        self.progress.append(message)

    def spans_so_far(self) -> list[dict[str, Any]]:
        """Finished tracer spans, compact: name, depth, milliseconds."""
        tracer = self.tracer
        if tracer is None:
            return []
        # snapshot: the worker appends concurrently (list.append is atomic)
        return [
            {
                "name": record.name,
                "depth": record.depth,
                "ms": round(record.duration * 1000, 3),
            }
            for record in list(tracer.spans)
        ]

    def to_wire(self) -> dict[str, Any]:
        wire: dict[str, Any] = {
            "job_id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "request_id": self.request_id,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": list(self.progress),
            "spans": self.spans_so_far(),
        }
        if self.result is not None:
            wire["result"] = self.result
        if self.error is not None:
            wire["error"] = self.error
        return wire


JobHandler = Callable[[SessionManager, Job], dict[str, Any]]


def run_integrate(manager: SessionManager, job: Job) -> dict[str, Any]:
    """Job kind ``integrate``: Phase 4 over a selected pair, checkpointed."""
    params = job.params
    session_id = params["session_id"]
    first, second = params["first"], params["second"]
    result_name = params.get("result_name", "integrated")
    with manager.pinned(job.tenant, session_id):
        job.note("waiting for session")
        with manager.acquire(job.tenant, session_id) as session:
            job.note(f"integrating {first} + {second} -> {result_name}")
            session.select_pair(first, second)
            result = session.integrate(result_name)
            fingerprint = state_fingerprint(session)
        job.note("checkpointing")
        manager.checkpoint(job.tenant, session_id)
    return {
        "result_schema": result.schema.name,
        "summary": result.schema.summary(),
        "structures": len(result.nodes),
        "state_fingerprint": fingerprint,
    }


def run_replay(manager: SessionManager, job: Job) -> dict[str, Any]:
    """Job kind ``replay``: audit the session's event log end to end.

    Exports the kernel state, re-derives a fresh session from it
    (baseline + replay — the same machinery recovery uses)
    and verifies the replica's state fingerprint matches the live one.
    """
    session_id = job.params["session_id"]
    with manager.pinned(job.tenant, session_id):
        job.note("exporting kernel state")
        with manager.acquire(job.tenant, session_id) as session:
            state = session.analysis.kernel.export_state()
            live = state_fingerprint(session)
        events = len(state.get("events", ()))
        job.note(f"replaying {events} event(s)")
        replica = ToolSession.from_kernel_state(state)
        replayed = state_fingerprint(replica)
    if replayed != live:
        raise ReplayError(
            f"audit replay diverged: live {live[:12]} vs replayed "
            f"{replayed[:12]}"
        )
    job.note("fingerprints match")
    return {
        "verified": True,
        "events": events,
        "state_fingerprint": live,
    }


class JobQueue:
    """Worker threads draining a bounded queue of background jobs."""

    #: built-in job kinds; instances may :meth:`register` more
    KINDS: dict[str, JobHandler] = {
        "integrate": run_integrate,
        "replay": run_replay,
    }

    def __init__(
        self,
        manager: SessionManager,
        *,
        workers: int = 1,
        max_queued: int = 256,
        telemetry: "ServiceTelemetry | None" = None,
    ) -> None:
        self.manager = manager
        self.workers = max(1, int(workers))
        self.max_queued = max_queued
        self.telemetry = telemetry
        self._kinds = dict(self.KINDS)
        self._jobs: dict[str, Job] = {}
        self._mutex = threading.Lock()
        self._queue: "queue.Queue[str | None]" = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._started = False

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._worker,
                name=f"repro-service-job-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def stop(self) -> None:
        if not self._started:
            return
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=30)
        self._threads.clear()
        self._started = False

    def register(self, kind: str, handler: JobHandler) -> None:
        """Add (or override) a job kind on this queue instance."""
        self._kinds[kind] = handler

    # -- submission and polling --------------------------------------------------

    def submit(
        self, tenant: str, kind: str, params: dict[str, Any]
    ) -> Job:
        handler = self._kinds.get(kind)
        if handler is None:
            raise BadRequestError(
                f"unknown job kind {kind!r} "
                f"(known: {', '.join(sorted(self._kinds))})"
            )
        session_id = params.get("session_id")
        if not isinstance(session_id, str) or not session_id:
            raise BadRequestError("job params need a 'session_id'")
        # fail fast on missing sessions: 404 at submit, not a failed job
        self.manager.sessions(tenant)  # validates tenant name
        if session_id not in {
            info.session_id for info in self.manager.sessions(tenant)
        }:
            from repro.service.errors import UnknownSessionError

            raise UnknownSessionError(session_id)
        with self._mutex:
            backlog = sum(
                1
                for job in self._jobs.values()
                if job.state in (QUEUED, RUNNING)
            )
            if backlog >= self.max_queued:
                raise CapacityError(
                    f"job queue is full ({self.max_queued} pending)"
                )
            job = Job(
                job_id=f"j-{secrets.token_hex(6)}",
                tenant=tenant,
                kind=kind,
                params=dict(params),
                # inherit the submitting request's id so the job's spans
                # and kernel events correlate with the 202 response
                request_id=current_request_id() or new_request_id(),
            )
            self._jobs[job.job_id] = job
        self.start()
        self._queue.put(job.job_id)
        return job

    def get(self, tenant: str, job_id: str) -> Job:
        with self._mutex:
            job = self._jobs.get(job_id)
        if job is None or job.tenant != tenant:
            raise JobNotFoundError(job_id)
        return job

    def list(self, tenant: str) -> list[Job]:
        with self._mutex:
            return sorted(
                (
                    job
                    for job in self._jobs.values()
                    if job.tenant == tenant
                ),
                key=lambda job: job.created,
            )

    def cancel(self, tenant: str, job_id: str) -> Job:
        """Cancel a job that has not started; running jobs finish."""
        job = self.get(tenant, job_id)
        with self._mutex:
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished = time.time()
                return job
        raise JobStateError(
            f"job {job_id!r} is {job.state}; only queued jobs cancel"
        )

    def wait(self, tenant: str, job_id: str, timeout: float = 30.0) -> Job:
        """Block until the job reaches a terminal state (tests, scripts)."""
        deadline = time.monotonic() + timeout
        job = self.get(tenant, job_id)
        while job.state not in TERMINAL_STATES:
            if time.monotonic() > deadline:
                raise JobStateError(
                    f"job {job_id!r} still {job.state} after {timeout}s"
                )
            time.sleep(0.01)
        return job

    # -- the workers -------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._mutex:
                job = self._jobs.get(job_id)
                if job is None or job.state != QUEUED:
                    continue  # cancelled while queued
                job.state = RUNNING
                job.started = time.time()
            self._run(job)

    def _run(self, job: Job) -> None:
        handler = self._kinds[job.kind]
        job.tracer = Tracer()
        session_id = job.params.get("session_id")
        if self.telemetry is not None and session_id:
            key = (job.tenant, session_id)
            request_id = job.request_id
            job.tracer.add_sink(
                self.telemetry.span_sink(key, request_id)
            )
        # bind the submitting request's id to this worker thread so
        # kernel events the job commits stream with the same id
        set_request_id(job.request_id or None)
        try:
            with use_tracer(job.tracer):
                with job.tracer.span(
                    f"service.job.{job.kind}",
                    job_id=job.job_id,
                    request_id=job.request_id,
                ):
                    result = handler(self.manager, job)
        except ReproError as exc:
            job.error = exc.to_wire()
            job.state = FAILED
        except Exception as exc:  # jobs never take a worker down
            job.error = {"code": "internal_error", "message": str(exc)}
            job.state = FAILED
        else:
            job.result = result
            job.state = SUCCEEDED
        finally:
            set_request_id(None)
            job.finished = time.time()

    # -- telemetry ---------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Job counts per state plus the queue depth (for the gauges)."""
        counts = {state: 0 for state in JOB_STATES}
        with self._mutex:
            for job in self._jobs.values():
                counts[job.state] += 1
        counts["queue_depth"] = counts[QUEUED]
        return counts


__all__ = [
    "CANCELLED",
    "FAILED",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "QUEUED",
    "RUNNING",
    "SUCCEEDED",
    "TERMINAL_STATES",
    "run_integrate",
    "run_replay",
]
