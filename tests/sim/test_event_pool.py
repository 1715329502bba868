"""Regression suite for the scheduler's Event pool.

The scheduler recycles ``Event`` objects (see ``EventScheduler._release``).
These tests run seeded cancel/reschedule storms and pin the counter
accounting (``scheduled == dispatched + cancelled + pending``), plus the
generation-counter guarantees that make recycling safe: a stale handle
answers from its snapshot and can never cancel the unrelated event now
living in its old ``Event`` object.
"""

from __future__ import annotations

import random

import pytest

from repro.sim.clock import Clock
from repro.sim.errors import EventCancelledError
from repro.sim.scheduler import EventScheduler

SEEDS = [11, 4242, 20260808]


def _storm(scheduler: EventScheduler, seed: int):
    """A seeded cancel/reschedule storm; returns (trace, counters).

    Each dispatched callback records ``(now, name)`` and may reschedule
    itself (exercising in-callback reuse of the just-released event);
    between steps, random pending handles are cancelled — some twice via
    ``cancel_if_pending`` to pin its return value too.
    """
    rng = random.Random(seed)
    trace = []
    handles = []
    cancel_returns = []

    def make_callback(label: str, depth: int):
        def fire():
            trace.append((scheduler.now, label))
            if depth > 0 and rng.random() < 0.4:
                handles.append(scheduler.schedule_after(
                    float(rng.randint(0, 12)),
                    make_callback(f"{label}.r", depth - 1),
                    name=f"{label}.r",
                ))
        return fire

    for index in range(120):
        handles.append(scheduler.schedule_after(
            float(rng.randint(0, 60)),
            make_callback(f"e{index}", depth=2),
            name=f"e{index}",
        ))
        if rng.random() < 0.35 and handles:
            victim = handles[rng.randrange(len(handles))]
            cancel_returns.append(victim.cancel_if_pending())
            # A second cancel must always report "already cancelled".
            cancel_returns.append(victim.cancel_if_pending())
        if rng.random() < 0.30:
            scheduler.step()
    scheduler.run_to_completion()
    counters = (
        scheduler.scheduled_count,
        scheduler.dispatched_count,
        scheduler.cancelled_count,
        scheduler.pending_count,
    )
    return trace, counters, cancel_returns


@pytest.mark.parametrize("seed", SEEDS)
def test_accounting_invariant_holds_under_storm(seed):
    trace, (scheduled, dispatched, cancelled, pending), cancels = _storm(
        EventScheduler(Clock()), seed)
    assert scheduled == dispatched + cancelled + pending
    assert pending == 0  # run_to_completion drained the queue
    assert len(trace) == dispatched
    assert [t for t, _ in trace] == sorted(t for t, _ in trace)
    # A second cancel of the same handle never performs a cancellation.
    assert not any(cancels[1::2])


def test_pool_actually_recycles():
    scheduler = EventScheduler(Clock())
    fired = []
    for i in range(10):
        scheduler.schedule_at(float(i), lambda i=i: fired.append(i))
    scheduler.run_to_completion()
    assert fired == list(range(10))
    assert scheduler.pooled_event_count > 0


def test_stale_handle_is_inert_after_recycling():
    scheduler = EventScheduler(Clock())
    first = scheduler.schedule_at(1.0, lambda: None, name="first")
    scheduler.run_to_completion()
    # The pooled object is reused for the next schedule...
    second = scheduler.schedule_at(2.0, lambda: None, name="second")
    assert second._event is first._event  # same object, new incarnation
    # ...but the stale handle still answers from its snapshot,
    assert first.time == 1.0 and first.name == "first"
    assert second.time == 2.0 and second.name == "second"
    # and cancelling it cannot touch the recycled event.
    assert first.cancel_if_pending() is True  # legacy: silent no-op cancel
    assert not second.cancelled
    assert scheduler.pending_count == 1
    with pytest.raises(EventCancelledError):
        first.cancel()
    scheduler.run_to_completion()
    assert scheduler.dispatched_count == 2


def test_reset_inerts_pending_handles_and_keeps_pool():
    scheduler = EventScheduler(Clock())
    scheduler.schedule_at(1.0, lambda: None)
    scheduler.run_to_completion()
    pooled_before = scheduler.pooled_event_count
    pending = scheduler.schedule_at(5.0, lambda: None, name="doomed")
    scheduler.reset()
    assert scheduler.pooled_event_count >= pooled_before
    assert scheduler.pending_count == 0
    # A late cancel on a pre-reset handle must not corrupt the new run.
    assert pending.cancel_if_pending() is True
    assert scheduler.pending_count == 0
    assert scheduler.cancelled_count == 0


def test_cancelled_heap_entries_are_recycled():
    scheduler = EventScheduler(Clock())
    handles = [scheduler.schedule_at(float(i), lambda: None) for i in range(5)]
    for handle in handles:
        handle.cancel()
    assert scheduler.pending_count == 0
    assert scheduler.cancelled_count == 5
    scheduler.run_to_completion()
    assert scheduler.dispatched_count == 0
    assert scheduler.pooled_event_count == 5
