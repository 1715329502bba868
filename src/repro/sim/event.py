"""Scheduled events and their cancellation handles.

Event objects are pooled by the scheduler: a dispatched or discarded
``Event`` is recycled for a future ``schedule_at`` instead of being
garbage. Recycling is made safe by a **generation counter** — every
release bumps ``Event.generation``, and an :class:`EventHandle` only
touches its event while the generation it captured at creation still
matches. A stale handle (to an event that was dispatched, reset away, or recycled) is
inert: it keeps answering from its own snapshot and never corrupts the
recycled event.
"""

from __future__ import annotations

from typing import Callable, Optional

from .errors import EventCancelledError

Callback = Callable[[], None]


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, seq)``: ties on time are broken by the
    order in which the events were scheduled, which keeps the kernel fully
    deterministic. (The scheduler's heap stores ``(time, seq, event)``
    tuples, so ordering never actually reaches ``__lt__`` — it is kept for
    direct comparisons in tests and debugging.)
    """

    __slots__ = ("time", "seq", "callback", "name", "cancelled", "on_cancel",
                 "generation")

    def __init__(self, time: float, seq: int, callback: Callback, name: str) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.name = name
        self.cancelled = False
        #: Invoked exactly once when the event is cancelled while still
        #: queued; the scheduler uses it to keep its pending-event counter
        #: exact without scanning the heap.
        self.on_cancel: Optional[Callback] = None
        #: Incarnation counter for pooling: bumped every time the scheduler
        #: releases this object for reuse, which instantly invalidates
        #: every handle created for the previous incarnation.
        self.generation = 0

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event({self.name!r} @ {self.time:.3f}ms, {state})"


class EventHandle:
    """A caller-facing handle to a scheduled event.

    Handles support cancellation (used pervasively: the attacks cancel
    pending animation frames, defenses cancel delayed notifications) and
    expose scheduling metadata for tests and trace analysis.

    The handle snapshots the event's time and name at creation and tracks
    its own cancelled flag, so it remains valid — and answers identically
    — after the underlying ``Event`` object has been dispatched and
    recycled into an unrelated event by the scheduler's pool.
    """

    __slots__ = ("_event", "_generation", "_time", "_name", "_cancelled")

    def __init__(self, event: Event) -> None:
        self._event = event
        self._generation = event.generation
        self._time = event.time
        self._name = event.name
        self._cancelled = event.cancelled

    @property
    def time(self) -> float:
        """Simulated time at which the event fires."""
        return self._time

    @property
    def name(self) -> str:
        return self._name

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Cancel the event; cancelling twice is an error."""
        if self._cancelled:
            raise EventCancelledError(f"event {self._name!r} already cancelled")
        self._mark_cancelled()

    def cancel_if_pending(self) -> bool:
        """Cancel the event if it has not been cancelled yet.

        Returns:
            ``True`` if this call performed the cancellation.
        """
        if self._cancelled:
            return False
        self._mark_cancelled()
        return True

    def _mark_cancelled(self) -> None:
        self._cancelled = True
        event = self._event
        if event.generation != self._generation:
            # The event object has moved on (dispatched and pooled, or the
            # scheduler was reset). Cancelling a no-longer-queued event was
            # always a silent no-op; the snapshot flag above preserves the
            # handle-side bookkeeping.
            return
        event.cancelled = True
        notify = event.on_cancel
        if notify is not None:
            event.on_cancel = None
            notify()


def noop() -> None:
    """A callback that does nothing (useful as a timer sentinel)."""


OptionalHandle = Optional[EventHandle]
