"""The event bus: one thread-safe, append-only log with typed subscriptions.

The bus is deliberately small: :meth:`EventBus.publish` appends an
:class:`~repro.kernel.events.Event` to the log and notifies matching
subscribers, all under one re-entrant lock.  Everything else the kernel
offers — transactions, checkout, undo/redo — is built on three bus
facilities:

* **Replay mode** (:meth:`EventBus.replaying`): while active, publishes
  notify the non-live subscribers (so materialised views invalidate
  correctly as state is re-driven) but append nothing to the log.  This
  is how a checkout can re-run history without duplicating it.
* **Grouping** (:meth:`EventBus.grouped`): all events published inside
  share one transaction id and are contiguous in the log — the lock is
  held for the duration, which is the single-writer discipline that
  makes interleaved sessions serializable.
* **Inverses**: a live publish may record an inverse descriptor
  (``(scope, action, payload)`` or :data:`~repro.kernel.events.NO_CHANGE`)
  that the kernel applies to undo the event without a checkout.

Subscriptions filter by scope and action; ``live_only`` subscribers
(the service's event stream) skip replayed events, so a checkout never
re-delivers history to them.

The bus holds its subscriptions and hooks; nothing it holds points back
to the bus strongly (a :class:`Subscription` keeps a weak reference), so
a dropped bus is freed by reference counting, not by the cycle
collector.
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

from repro.kernel.events import NO_CHANGE, Event


def weak_callback(
    owner: Any, method: Callable[[Any, Any], None]
) -> Callable[[Any], None]:
    """A one-argument callback running ``method(owner, arg)`` while
    ``owner`` lives.

    For a component that the bus (or something the bus holds) would
    otherwise keep alive through its own bound method: the callback
    holds the component weakly and does nothing once it is freed.  The
    arity is fixed because a ``*args`` forward costs about three times
    the call itself, on every publish.
    """
    ref = weakref.ref(owner)

    def callback(arg: Any) -> None:
        target = ref()
        if target is not None:
            method(target, arg)

    return callback


class Subscription:
    """One subscriber's handle: filters, delivery flags and cancellation."""

    __slots__ = ("callback", "scopes", "actions", "live_only", "_bus")

    def __init__(
        self,
        bus: "EventBus",
        callback: Callable[[Event], None],
        scopes: frozenset | None,
        actions: frozenset | None,
        live_only: bool,
    ) -> None:
        #: weak: the bus holds the subscription, not the other way round
        self._bus = weakref.ref(bus)
        self.callback = callback
        self.scopes = scopes
        self.actions = actions
        self.live_only = live_only

    def matches(self, event: Event) -> bool:
        if self.scopes is not None and event.scope not in self.scopes:
            return False
        if self.actions is not None and event.action not in self.actions:
            return False
        return True

    def cancel(self) -> None:
        """Stop receiving events (idempotent; a no-op once the bus is gone)."""
        bus = self._bus()
        if bus is not None:
            bus._remove(self)


class Group:
    """The context manager :meth:`EventBus.grouped` returns.

    A class rather than a generator, since every DDA step enters one.
    The lock is taken on entry and released on exit; the outermost
    group on the bus opens the transaction and closes it.
    """

    __slots__ = ("bus", "_outermost")

    def __init__(self, bus: "EventBus") -> None:
        self.bus = bus
        self._outermost = False

    def __enter__(self) -> int | None:
        bus = self.bus
        bus._lock.acquire()
        if bus._replay_depth:
            self._outermost = False
            return None
        self._outermost = bus._active_txn is None
        if self._outermost:
            bus._txn_counter += 1
            bus._active_txn = bus._txn_counter
        return bus._active_txn

    def __exit__(self, *exc_info: object) -> None:
        self._close()
        self.bus._lock.release()

    def _close(self) -> None:
        """End the transaction if this group opened it (lock still held)."""
        if self._outermost:
            self.bus._active_txn = None


class EventBus:
    """Append-only event log + subscriber registry, behind one lock."""

    def __init__(self) -> None:
        self._events: list[Event] = []
        self._subscriptions: list[Subscription] = []
        #: offset -> inverse descriptor for cheaply invertible events
        self._inverses: dict[int, object] = {}
        self._lock = threading.RLock()
        self._txn_counter = 0
        self._active_txn: int | None = None
        self._replay_depth = 0
        #: kernel hook: called before a live append (drops the redo tail)
        self.before_publish: Callable[[], None] | None = None
        #: kernel hook: called after a live append (advances the head)
        self.after_publish: Callable[[Event], None] | None = None

    # -- log access -----------------------------------------------------------

    @property
    def lock(self) -> threading.RLock:
        """The bus lock; the kernel's write operations share it."""
        return self._lock

    @property
    def offset(self) -> int:
        """Number of committed events (the offset of the log's end)."""
        return len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def events(self, start: int = 0, end: int | None = None) -> list[Event]:
        """Committed events with offsets in ``(start, end]``."""
        with self._lock:
            stop = len(self._events) if end is None else end
            return self._events[start:stop]

    def event_at(self, offset: int) -> Event:
        """The committed event at a 1-based offset."""
        return self._events[offset - 1]

    @property
    def active_txn(self) -> int | None:
        """The transaction id open on this bus, if any."""
        return self._active_txn

    # -- subscriptions --------------------------------------------------------

    def subscribe(
        self,
        callback: Callable[[Event], None],
        *,
        scopes: Iterable[str] | None = None,
        actions: Iterable[str] | None = None,
        live_only: bool = False,
    ) -> Subscription:
        """Register a callback for matching events; returns its handle.

        ``scopes``/``actions`` restrict delivery (``None`` matches all).
        ``live_only`` subscribers are skipped while the bus replays
        history — use it for taps that must see each event exactly once
        (the service's event stream); leave it off for invalidation
        listeners, which must track state however it moves.
        """
        subscription = Subscription(
            self,
            callback,
            frozenset(scopes) if scopes is not None else None,
            frozenset(actions) if actions is not None else None,
            live_only,
        )
        with self._lock:
            self._subscriptions.append(subscription)
        return subscription

    def _remove(self, subscription: Subscription) -> None:
        with self._lock:
            self._subscriptions = [
                existing
                for existing in self._subscriptions
                if existing is not subscription
            ]

    # -- replay mode ----------------------------------------------------------

    @contextmanager
    def replaying(self) -> Iterator[None]:
        """While active, publishes notify views but append nothing.

        Acquires the bus lock for the duration, so no live writer can
        interleave with a replay in progress.
        """
        with self._lock:
            self._replay_depth += 1
            try:
                yield
            finally:
                self._replay_depth -= 1

    @property
    def replaying_now(self) -> bool:
        return self._replay_depth > 0

    # -- grouping -------------------------------------------------------------

    def grouped(self) -> "Group":
        """Stamp all events published inside with one transaction id.

        Holds the bus lock for the duration — the single-writer
        discipline that keeps a group's events contiguous in the log.
        Nested groups join the outermost transaction.  Entering the
        returned :class:`Group` gives the transaction id (``None`` while
        replaying).
        """
        return Group(self)

    # -- publishing -----------------------------------------------------------

    def publish(
        self,
        scope: str,
        action: str,
        payload: dict[str, Any] | None = None,
        *,
        objects: frozenset = frozenset(),
        schemas: frozenset = frozenset(),
        inverse: object = None,
    ) -> Event:
        """Commit one event (or, in replay mode, notify views only).

        ``inverse`` is the event's undo descriptor: a
        ``(scope, action, payload)`` tuple the kernel can re-apply,
        :data:`~repro.kernel.events.NO_CHANGE` for no-op events, or
        ``None`` when the mutation is not cheaply invertible (undo then
        falls back to a checkout).
        """
        if payload is None:
            payload = {}
        with self._lock:
            if self._replay_depth:
                event = Event(0, scope, action, payload, 0, objects, schemas)
                matching = [
                    subscription
                    for subscription in self._subscriptions
                    if not subscription.live_only
                    and subscription.matches(event)
                ]
            else:
                if self.before_publish is not None:
                    self.before_publish()
                txn = self._active_txn
                if txn is None:
                    self._txn_counter += 1
                    txn = self._txn_counter
                event = Event(
                    len(self._events) + 1,
                    scope,
                    action,
                    payload,
                    txn,
                    objects,
                    schemas,
                )
                self._events.append(event)
                if inverse is not None:
                    self._inverses[event.offset] = inverse
                if self.after_publish is not None:
                    self.after_publish(event)
                matching = [
                    subscription
                    for subscription in self._subscriptions
                    if subscription.matches(event)
                ]
            for subscription in matching:
                subscription.callback(event)
        return event

    def inverse_for(self, offset: int) -> object:
        """The recorded inverse of a committed event (None = checkout)."""
        return self._inverses.get(offset)

    # -- truncation and serialisation ----------------------------------------

    def truncate(self, offset: int) -> list[Event]:
        """Drop every event past ``offset``; returns the dropped tail."""
        with self._lock:
            dropped = self._events[offset:]
            del self._events[offset:]
            for event in dropped:
                self._inverses.pop(event.offset, None)
            return dropped

    def to_dicts(self) -> list[dict[str, Any]]:
        with self._lock:
            return [event.to_dict() for event in self._events]

    def load_dicts(self, entries: Iterable[dict[str, Any]]) -> None:
        """Replace the log with serialised events (no notifications).

        Inverses are not serialised, so undo over a restored log goes
        through checkouts until new live events are committed.
        """
        with self._lock:
            self._events = [Event.from_dict(entry) for entry in entries]
            self._inverses.clear()
            self._txn_counter = max(
                (event.txn for event in self._events), default=0
            )


class EventEmitter:
    """A component's handle on the bus: binds its scope name.

    Engines keep one cheap ``self.events is None`` check per
    mutation; :meth:`muted` suspends
    emission during internal repair (a network rebuild re-specifies its
    own log, which is not new DDA input).
    """

    __slots__ = ("bus", "scope", "_mute_depth")

    def __init__(self, bus: EventBus, scope: str) -> None:
        self.bus = bus
        self.scope = scope
        self._mute_depth = 0

    def emit(
        self,
        action: str,
        payload: dict[str, Any] | None = None,
        *,
        objects: frozenset = frozenset(),
        schemas: frozenset = frozenset(),
        inverse: object = None,
    ) -> Event | None:
        if self._mute_depth:
            return None
        return self.bus.publish(
            self.scope,
            action,
            payload,
            objects=objects,
            schemas=schemas,
            inverse=inverse,
        )

    @contextmanager
    def muted(self) -> Iterator[None]:
        """Suspend emission (internal repair, not new input)."""
        self._mute_depth += 1
        try:
            yield
        finally:
            self._mute_depth -= 1


__all__ = [
    "EventBus",
    "EventEmitter",
    "Group",
    "Subscription",
    "NO_CHANGE",
    "weak_callback",
]
