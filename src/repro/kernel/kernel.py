"""The kernel: transactions, time travel and persistence over one bus.

A :class:`Kernel` owns an :class:`~repro.kernel.bus.EventBus` plus the
book-keeping that turns a flat event log into a session's history:

* a **head** cursor — the offset the bound session's state corresponds
  to.  Live publishes advance it; undo/checkout move it back without
  touching the log, so redo can walk forward again.  A live publish
  while the head is behind the log end truncates the redo tail first
  (branching history is linear, like an editor's undo stack).
* **transactions** — :meth:`transaction` makes a multi-mutation block
  all-or-nothing: on an exception the events committed inside are
  dropped from the log and the session is rebuilt at the offset it
  entered at, by the same *baseline + replay* as :meth:`checkout`.
* **one snapshot** — the :class:`~repro.kernel.snapshots.Snapshot` at
  the baseline: empty for a fresh log, or the session state that
  :meth:`set_baseline` recorded after a legacy restore.  :meth:`checkout`
  restores any offset by *baseline + replay*, and so do restore,
  rehydration, replica reads, the undo fallback and a rollback.
* **undo/redo** — group-wise time travel: :meth:`undo` reverts the most
  recent effectful transaction (skipping no-op groups such as recorded
  conflicts), :meth:`redo` re-applies up to the next effectful one.
* **persistence** — :meth:`export_state` / :meth:`restore` round-trip
  the log + baseline through the data dictionary; restoring a session
  is ``Kernel.restore(...)`` followed by :meth:`checkout` of the saved
  head.
* **journals** — an attached WAL and audit log both get each committed
  group and each head move; a rolled-back transaction reaches neither.
* **a read memo** — :meth:`read_at_head` remembers the answer to a
  read of the session state by the head it was computed at, for at
  most :data:`READ_MEMO_HEADS` heads.  Like an integration result, a
  read is a function of the log up to its offset, so cutting the log
  cuts both.

All write operations run under the bus lock, so two sessions sharing a
kernel interleave at transaction granularity — the single-writer
discipline the concurrency stress test exercises.

The session owns its kernel and the kernel owns its bus; the edges back
up (:attr:`Kernel.session`, the bus's publish hooks) are weak, so
dropping the last reference to a session frees the whole graph by
reference counting.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right, insort
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Callable, Hashable, Iterator, TypeVar

from repro.errors import KernelError, ReplayError
from repro.kernel.apply import apply_event, event_label
from repro.kernel.bus import EventBus, Group, weak_callback
from repro.kernel.events import NO_CHANGE, Command, Event
from repro.kernel.snapshots import Snapshot, apply_state

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.equivalence.session import AnalysisSession
    from repro.integration.result import IntegrationResult
    from repro.kernel.wal import WriteAheadLog
    from repro.obs.audit import AuditLog

T = TypeVar("T")

#: how many heads :meth:`Kernel.read_at_head` keeps answers for
READ_MEMO_HEADS = 4
#: how many distinct reads it keeps at one head
READ_MEMO_KEYS = 16


class _CommandView:
    """Adapts a :class:`Command` to the event shape ``apply_event`` reads."""

    __slots__ = ("scope", "action", "payload")

    def __init__(self, command: Command) -> None:
        self.scope = command.scope
        self.action = command.action
        self.payload = command.args


class _KernelGroup(Group):
    """The context manager :meth:`Kernel.group` returns."""

    __slots__ = ("kernel",)

    def __init__(self, kernel: "Kernel") -> None:
        super().__init__(kernel.bus)
        self.kernel = kernel

    def __exit__(self, *exc_info: object) -> None:
        self._close()
        try:
            # no rollback on exception — whatever committed stays in the
            # log, so it must reach the journals too
            self.kernel._commit()
        finally:
            self.bus._lock.release()


class Kernel:
    """Event log + head cursor + baseline snapshot for one analysis session."""

    def __init__(self, *, bus: EventBus | None = None) -> None:
        self.bus = bus if bus is not None else EventBus()
        #: weak reference to the bound session (:meth:`bind`, :attr:`session`)
        self._session: "weakref.ref[AnalysisSession] | None" = None
        self._head = self.bus.offset
        #: the state at the baseline offset; every rebuild starts here
        self._base = Snapshot(self.bus.offset, {})
        #: integration results by the offset of their ``session.integrate``
        #: event — lets the tool resync its displayed result after time travel
        self._results_by_offset: "dict[int, IntegrationResult]" = {}
        #: ``_results_by_offset``'s keys, and the offsets of the
        #: ``session.integrate`` events of the log up to ``_indexed``, in
        #: log order — the head's integration is a bisection, not a walk
        self._result_offsets: list[int] = []
        self._integrates: list[int] = []
        self._indexed = 0
        #: answers to reads of the session state by the head they were
        #: computed at (see :meth:`read_at_head`), oldest head first
        self._reads: dict[int, dict[Hashable, Any]] = {}
        #: the logged event :meth:`_replay_one` is re-applying, if any
        self._replaying: Event | None = None
        #: the attached journals, plus the group-commit buffer: events
        #: published since the open group began
        self.wal: "WriteAheadLog | None" = None
        self.audit: "AuditLog | None" = None
        self._pending: list[Event] = []
        self._pending_truncate: int | None = None
        #: the audit log's reach: its origin and the last event it received
        self._audit_origin = self._audit_end = 0
        #: monotonic count of live publishes — lets a transaction tell
        #: whether anything actually reached the log before it failed
        self._live_publishes = 0
        # the kernel owns the bus, so the hooks hold it weakly
        ref = weakref.ref(self)

        def before_publish() -> None:
            kernel = ref()
            if kernel is not None:
                kernel._before_live_publish()

        self.bus.before_publish = before_publish
        self.bus.after_publish = weak_callback(self, Kernel._after_live_publish)

    # -- binding and cursors ----------------------------------------------------

    def bind(self, session: "AnalysisSession") -> None:
        """Attach the session whose state this kernel's log describes.

        The kernel keeps a weak reference: the session owns the kernel,
        not the other way round.
        """
        self._session = weakref.ref(session)

    @property
    def session(self) -> "AnalysisSession | None":
        """The bound session; ``None`` if unbound or already freed.

        Time travel rebuilds it in place.
        """
        ref = self._session
        return None if ref is None else ref()

    @property
    def head(self) -> int:
        """The offset the bound session's state corresponds to."""
        return self._head

    @property
    def baseline(self) -> int:
        """The earliest offset time travel may reach (see :meth:`set_baseline`)."""
        return self._base.offset

    def set_baseline(self) -> None:
        """Make the current state the floor for undo/checkout.

        Replaces the baseline snapshot with the state at the head, so
        checkouts never need events older than it — used after restoring
        from a persisted dictionary whose log was not saved (legacy
        format), where pre-restore history simply does not exist, and by
        audit replay after each ``session.snapshot``, which restates the
        whole state.
        """
        with self.bus.lock:
            self._base = Snapshot(
                self._head, self._require_session().state_payload()
            )
            # the state at the head was set without an event
            self._reads = {}

    def _require_session(self) -> "AnalysisSession":
        session = self.session
        if session is None:
            raise KernelError("kernel has no bound session")
        return session

    # -- live-publish hooks ------------------------------------------------------

    def _truncate(self, offset: int) -> None:
        """Cut history at ``offset``: events, cached results and reads."""
        self.bus.truncate(offset)
        self._results_by_offset = {
            at: result
            for at, result in self._results_by_offset.items()
            if at <= offset
        }
        for offsets in (self._result_offsets, self._integrates):
            del offsets[bisect_right(offsets, offset):]
        self._indexed = min(self._indexed, offset)
        self._reads = {
            at: answers for at, answers in self._reads.items() if at <= offset
        }

    def _before_live_publish(self) -> None:
        if self._head < self.bus.offset:
            self._truncate(self._head)
            if self.wal is not None and self._pending_truncate is None:
                self._pending_truncate = self._head

    def _after_live_publish(self, event: Event) -> None:
        self._live_publishes += 1
        self._head = event.offset
        if self.wal is not None or self.audit is not None:
            self._pending.append(event)
            if self.bus.active_txn is None:
                # a bare publish outside any group is its own transaction
                self._commit()

    # -- journals ----------------------------------------------------------------

    def attach_wal(self, wal: "WriteAheadLog") -> None:
        """Journal every committed transaction to ``wal`` before returning.

        A fresh WAL generation (no records yet) is opened with a
        ``base`` record anchoring it to the current log length and head.
        When the kernel already holds events, the full exported state
        rides along so the generation stays self-anchoring (replayable
        without the backing save); a restored legacy session at offset 0
        embeds its baseline snapshot for the same reason.
        """
        with self.bus.lock:
            self.wal = wal
            self._pending = []
            self._pending_truncate = None
            if not wal.open_report.records:
                base: dict[str, Any] = {
                    "t": "base",
                    "offset": self.bus.offset,
                    "head": self._head,
                    "baseline": self._base.offset,
                }
                if self.bus.offset > 0:
                    base["state"] = self.export_state()
                elif self._base.state:
                    base["snapshot"] = self._base.to_dict()
                wal.append(base)

    def attach_audit(self, log: "AuditLog") -> None:
        """Journal committed groups and head moves to ``log`` too.

        The head, stated by a snapshot unless the session is empty,
        becomes the log's origin.  Set :attr:`audit` to ``None`` to stop.
        """
        with self.bus.lock:
            self.audit = log
            snapshot = self._require_session()._audit_snapshot()
            if any(snapshot.values()):
                log.emit("session", "snapshot", snapshot)
            self._audit_origin = self._audit_end = self._head

    def _commit(self) -> None:
        """Flush the group buffer: one WAL commit record, and the events."""
        if self.bus.active_txn is not None:
            return
        if not self._pending and self._pending_truncate is None:
            return
        events, truncate = self._pending, self._pending_truncate
        self._pending, self._pending_truncate = [], None
        if self.wal is not None:
            self.wal.commit(
                [event.to_dict() for event in events], truncate=truncate
            )
        log = self.audit
        if log is not None and events:
            for event in events:
                log.emit(event.scope, event.action, event.payload, event.txn)
            self._audit_end = events[-1].offset

    def _discard(self) -> None:
        """Drop the group buffer (the transaction rolled back).

        The rolled-back *events* vanish without trace, but a staged
        redo-tail truncation must still be journaled:
        ``_before_live_publish`` already destroyed the tail in memory
        (events and cached results past the head are gone,
        and rollback does not resurrect them), so without a durable
        record a crash-recovered kernel — or a replica replaying the
        shipped WAL — would resurrect a redo tail the live kernel no
        longer has, and their log offsets would diverge.
        """
        self._pending = []
        truncate = self._pending_truncate
        self._pending_truncate = None
        if truncate is not None and self.wal is not None:
            self.wal.commit([], truncate=truncate)

    def _record_head(self, action: str) -> None:
        """Journal a cursor move so recovery and replay land where the user was.

        A head out of the audit log's reach re-anchors it with a snapshot.
        """
        if self.bus.replaying_now:
            return
        if self.wal is not None:
            self.wal.record_head(self._head)
        log = self.audit
        if log is None:
            return
        if self._audit_origin <= self._head <= self._audit_end:
            offset = {"offset": self._head - self._audit_origin}
            log.emit("kernel", action, offset if action == "checkout" else {})
        else:
            snapshot = self._require_session()._audit_snapshot()
            log.emit("session", "snapshot", snapshot)
            self._audit_origin = self._audit_end = self._head

    # -- grouping and transactions ----------------------------------------------

    def group(self) -> "_KernelGroup":
        """Commit the mutations inside as one undo/redo unit.

        An :meth:`EventBus.grouped` group that also journals an
        outermost commit to the WAL, still under the bus lock.  No
        rollback on exception — a recorded conflict legitimately stays
        in the log; use :meth:`transaction` for all-or-nothing semantics.
        """
        return _KernelGroup(self)

    @contextmanager
    def transaction(self) -> Iterator[int | None]:
        """All-or-nothing multi-mutation block.

        On an exception, history is cut back to the entry offset (only
        when the block published: otherwise events past it are a redo
        tail that is not ours to drop), the session is rebuilt at that
        offset by *baseline + replay*, exactly as :meth:`checkout` does,
        and the exception propagates.  Nested transactions join the
        outermost one (a rollback is total).
        """
        with self.bus.lock:
            if self.bus.replaying_now or self.bus.active_txn is not None:
                with self.bus.grouped() as txn:
                    yield txn
                return
            start = self._head
            entry_publishes = self._live_publishes
            try:
                with self.bus.grouped() as txn:
                    yield txn
            except BaseException:
                self._discard()
                if self._live_publishes > entry_publishes:
                    self._truncate(start)
                self._rebuild_at(start)
                raise
            else:
                self._commit()

    # -- dispatch ----------------------------------------------------------------

    def dispatch(self, command: Command) -> "IntegrationResult | None":
        """Run a :class:`Command` as the matching live session mutation.

        The mutation emits its event(s) on success, exactly as calling
        the session method directly would.  Returns the integration
        result for ``session.integrate`` commands and for
        ``evolution.apply_edit`` commands that re-integrated, else
        ``None``.
        """
        def diverge(event: Any, message: str) -> None:
            raise KernelError(f"command {command}: {message}")

        results: "list[IntegrationResult]" = []
        with self.group():
            apply_event(
                self._require_session(),
                _CommandView(command),
                diverge,
                results=results,
            )
        return results[-1] if results else None

    # -- time travel -------------------------------------------------------------

    def checkout(self, offset: int) -> None:
        """Restore the session to its state after ``offset`` events.

        Rebuilds from the baseline snapshot and replays the log up to
        ``offset``.  The log is untouched — events past ``offset``
        remain available to :meth:`redo` until a new live mutation
        truncates them.
        """
        with self.bus.lock:
            if offset < self._base.offset or offset > self.bus.offset:
                raise KernelError(
                    f"offset {offset} outside "
                    f"[{self._base.offset}, {self.bus.offset}]"
                )
            self._rebuild_at(offset)
            self._record_head("checkout")

    def undo(self) -> bool:
        """Revert the most recent effectful group; False if none remains.

        Groups whose every event recorded :data:`NO_CHANGE` (conflicts,
        rejections, re-statements) are skipped — they never changed
        state, so undoing them would be a surprise no-op for the user.
        """
        with self.bus.lock:
            target = self._undo_target()
            if target is None:
                return False
            start, inverses = target
            if any(inverse is None for inverse in inverses):
                self._rebuild_at(start)
            else:
                with self.bus.replaying():
                    for inverse in reversed(inverses):
                        if inverse is not NO_CHANGE:
                            self._apply_inverse(inverse)
                self._head = start
            self._record_head("undo")
            return True

    def redo(self) -> bool:
        """Re-apply up to the next effectful undone group; False if none.

        No-op groups before it are replayed on the way; trailing no-op
        groups with nothing effectful after them are left alone, so a
        False return changes nothing.
        """
        with self.bus.lock:
            end = self._redo_target()
            if end is None:
                return False
            for event in self.bus.events(self._head, end):
                self._replay_one(event)
            self._record_head("redo")
            return True

    def can_undo(self) -> bool:
        with self.bus.lock:
            return self._undo_target() is not None

    def can_redo(self) -> bool:
        with self.bus.lock:
            return self._redo_target() is not None

    def _undo_target(self) -> "tuple[int, list[object]] | None":
        """The start offset and inverses of the latest effectful group.

        A group is the contiguous run of same-transaction events.
        """
        end = self._head
        while end > self._base.offset:
            txn = self.bus.event_at(end).txn
            start = end - 1
            while (
                start > self._base.offset
                and self.bus.event_at(start).txn == txn
            ):
                start -= 1
            inverses = [
                self.bus.inverse_for(offset)
                for offset in range(start + 1, end + 1)
            ]
            if any(inverse is not NO_CHANGE for inverse in inverses):
                return start, inverses
            end = start
        return None

    def _redo_target(self) -> int | None:
        """The end offset of the next effectful group past the head."""
        start = self._head
        while start < self.bus.offset:
            txn = self.bus.event_at(start + 1).txn
            end = start + 1
            while (
                end < self.bus.offset
                and self.bus.event_at(end + 1).txn == txn
            ):
                end += 1
            if any(
                self.bus.inverse_for(offset) is not NO_CHANGE
                for offset in range(start + 1, end + 1)
            ):
                return end
            start = end
        return None

    # -- replay helpers ----------------------------------------------------------

    def _strict_diverge(self, event: Any, message: str) -> None:
        raise ReplayError(f"{event_label(event)}: {message}")

    def _replay_one(self, event: Event) -> None:
        """Re-apply one logged event and move the head past it.

        The head follows the replay, so a replayed ``apply_edit`` finds
        the integration it re-derives exactly as the live edit did.
        """
        session = self._require_session()
        results: "list[IntegrationResult]" = []
        self._replaying = event
        try:
            with self.bus.replaying():
                apply_event(
                    session, event, self._strict_diverge, results=results
                )
        finally:
            self._replaying = None
        if results:
            self.record_result(event.offset, results[-1])
        self._head = event.offset

    def _apply_inverse(self, inverse: object) -> None:
        scope, action, payload = inverse  # type: ignore[misc]
        view = _CommandView(Command(scope, action, dict(payload)))
        apply_event(self._require_session(), view, self._strict_diverge)

    def _rebuild_at(self, offset: int) -> None:
        """Rebuild the session at ``offset``: baseline, then replay.

        The one way back shared by :meth:`checkout` and a transaction's
        rollback; it journals nothing.
        """
        base = self._base
        if base.offset > 0 and not base.state:
            raise KernelError(
                f"no snapshot covers offset {offset} "
                f"(baseline {base.offset})"
            )
        session = self._require_session()
        with self.bus.replaying():
            session.reset_to([])
            if base.state:
                apply_state(
                    session,
                    base.state,
                    on_error=lambda message: self._strict_diverge(
                        _CommandView(Command("session", "snapshot", {})),
                        message,
                    ),
                )
        self._head = base.offset
        for event in self.bus.events(base.offset, offset):
            self._replay_one(event)

    def _index_log(self) -> None:
        """Note the ``session.integrate`` events appended since last time."""
        for event in self.bus.events(self._indexed):
            if event.scope == "session" and event.action == "integrate":
                self._integrates.append(event.offset)
        self._indexed = self.bus.offset

    def _latest_integrate(self) -> int | None:
        """The offset of the latest integrate event in [baseline, head]."""
        self._index_log()
        at = bisect_right(self._integrates, self._head)
        # one at the baseline is a replayed snapshot's integration
        if at and self._integrates[at - 1] >= self._base.offset:
            return self._integrates[at - 1]
        return None

    def integration_at_head(self) -> Event | None:
        """The latest ``session.integrate`` event at or before the head."""
        with self.bus.lock:
            offset = self._latest_integrate()
            return None if offset is None else self.bus.event_at(offset)

    def result_at_head(self) -> "IntegrationResult | None":
        """The latest integration result at or before the head.

        An ``evolution.apply_edit`` event that re-integrated the pair has
        its result recorded against it, which shadows the integrate
        event's; an edit without one (it touched another schema, or its
        re-integration failed) falls through to the result before it.
        """
        offset = self.result_offset_at_head()
        return None if offset is None else self._results_by_offset.get(offset)

    def result_offset_at_head(self) -> int | None:
        """The offset of the event :meth:`result_at_head` reads."""
        with self.bus.lock:
            integrated = self._latest_integrate()
            if integrated is None:
                return None
            # only integrate and edit events record results, so one past
            # the latest integrate is an edit's
            offsets = self._result_offsets
            at = bisect_right(offsets, self._head)
            if at and offsets[at - 1] > integrated:
                return offsets[at - 1]
            return integrated

    def read_at_head(self, key: Hashable, compute: Callable[[], T]) -> T:
        """``compute()``, remembered under ``key`` at the current head.

        ``compute`` must read the session state and nothing else.  The
        answer is kept for the head it was computed at: the state there
        is a function of the log up to the head, so it holds until
        :meth:`_truncate` cuts the log below it.  Only the last
        :data:`READ_MEMO_HEADS` heads keep answers, at most
        :data:`READ_MEMO_KEYS` each.  Inside an open group or
        transaction, or under replay, the state may be ahead of the
        head, so the memo is neither read nor filled there.
        """
        with self.bus.lock:
            if self.bus.active_txn is not None or self.bus.replaying_now:
                return compute()
            head = self._head
            answers = self._reads.get(head)
            if answers is not None and key in answers:
                return answers[key]
            value = compute()
            if self._head != head:
                return value
            if answers is None:
                if len(self._reads) >= READ_MEMO_HEADS:
                    del self._reads[next(iter(self._reads))]
                answers = self._reads[head] = {}
            elif len(answers) >= READ_MEMO_KEYS:
                del answers[next(iter(answers))]
            answers[key] = value
            return value

    def wants_result(self, event: Event) -> bool:
        """Whether the edit that just published ``event`` should re-integrate.

        A live event (a real offset) always does.  Under replay, only the
        re-application of a logged event without a recorded result does:
        a result is a function of the log up to its offset, so one
        recorded earlier (checkout, redo) is still right, and an undo's
        inverse edit lands on an offset whose result is already recorded.
        """
        if event.offset:
            return True
        replaying = self._replaying
        return (
            replaying is not None
            and replaying.offset not in self._results_by_offset
        )

    def record_result(self, offset: int, result: "IntegrationResult") -> None:
        """Remember the result an integrate or edit event produced."""
        if offset not in self._results_by_offset:
            insort(self._result_offsets, offset)
        self._results_by_offset[offset] = result

    # -- persistence -------------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """The log, baseline snapshot and cursors in JSON-friendly form.

        ``snapshots`` holds the baseline snapshot when it carries state
        (a legacy restore), else nothing.
        """
        with self.bus.lock:
            base = self._base
            return {
                "head": self._head,
                "baseline": base.offset,
                "events": self.bus.to_dicts(),
                "snapshots": [base.to_dict()] if base.state else [],
            }

    @classmethod
    def restore(cls, state: dict[str, Any]) -> "Kernel":
        """Rebuild a kernel from :meth:`export_state` output.

        The caller binds a fresh session, keeps a reference to it (the
        kernel holds its session weakly) and then checks out the saved
        head: ``kernel.checkout(state["head"])`` — restore *is*
        baseline + replay.  Of the ``snapshots`` entries only the one at
        the baseline offset is read; older exports also carried periodic
        ones, which are ignored.
        """
        kernel = cls()
        kernel.bus.load_dicts(state.get("events", ()))
        baseline = int(state.get("baseline", 0))
        kernel._base = next(
            (
                Snapshot.from_dict(entry)
                for entry in state.get("snapshots", ())
                if int(entry["offset"]) == baseline
            ),
            Snapshot(baseline, {}),
        )
        kernel._head = 0
        return kernel


__all__ = ["Kernel"]
