"""Deterministic fault injection: jitter, drops and freezes on demand.

The paper's attacks live on millisecond margins (the 360 ms slide-in, the
500 ms toast fade, the mistouch gap ``Tmis``), and the paper measured them
on real, noisy devices. This module recreates that noise *reproducibly*:
a :class:`FaultProfile` names a regime (how much jitter, how many drops),
and a :class:`FaultPlan` binds it to one simulation's seeded RNG so the
perturbed run is exactly as deterministic as an unperturbed one — same
seed, same plan, bit-identical trace (pinned by
``tests/sim/test_faults_properties.py``).

Four fault classes, matching where real-device noise enters:

* **frame faults** — per-frame render jitter and dropped frames, consumed
  by :class:`~repro.animation.animator.Animator` (schedule side) and by
  the compositor's query-side staleness mapping (:meth:`FaultPlan.render_time`);
* **dispatch latency** — every scheduled callback fires a little late
  (uniform or lognormal), installed as the event scheduler's perturbation
  hook;
* **Binder faults** — extra transaction transit latency and outright
  transaction drops, applied inside :class:`~repro.binder.router.BinderRouter`;
* **GC pauses** — periodic freezes during which nothing dispatches:
  events that would fire inside a pause window slip to its end.

Every perturbation only ever *delays* (never advances) an event, so the
kernel's ordering guarantees survive any profile: the clock stays
monotone, no event is lost, and dispatch order remains non-decreasing in
time.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Optional, Tuple

from .rng import SeededRng

#: Display refresh interval assumed by the query-side frame-staleness
#: mapping (matches ``repro.animation.animator.DEFAULT_REFRESH_INTERVAL``;
#: redeclared here because the kernel must not import the animation layer).
_RENDER_FRAME_MS = 10.0

#: Most consecutive dropped frames the compositor staleness walk considers
#: (beyond this the screen would visibly hang; the bound keeps the mapping
#: O(1) per query).
_MAX_CONSECUTIVE_DROPPED_FRAMES = 3

_DISTRIBUTIONS = ("uniform", "lognormal")


@dataclass(frozen=True)
class FaultProfile:
    """Parameters of one fault regime. All magnitudes in milliseconds.

    A zero value disables that fault class entirely — a profile whose
    every knob is zero is a no-op and injects nothing (and consumes no
    random draws), which is what makes the ``jitter = 0`` point of a sweep
    bit-identical to a run with no fault layer at all.
    """

    name: str
    #: Mean extra delay added to each animation frame (uniform in
    #: ``[0, 2 * mean]``).
    frame_jitter_ms: float = 0.0
    #: Probability an animation frame renders nothing (the machinery still
    #: advances, so animations always finish).
    frame_drop_probability: float = 0.0
    #: Mean extra dispatch latency added to every scheduled event.
    dispatch_jitter_ms: float = 0.0
    #: Shape of the dispatch/Binder latency noise: ``uniform`` draws from
    #: ``[0, 2 * mean]``; ``lognormal`` is heavy-tailed with the same mean.
    distribution: str = "uniform"
    #: Mean extra Binder transaction transit latency.
    binder_jitter_ms: float = 0.0
    #: Probability a Binder transaction is dropped in transit.
    binder_drop_probability: float = 0.0
    #: Mean period between GC pauses (0 disables them).
    gc_period_ms: float = 0.0
    #: Mean duration of one GC pause.
    gc_pause_ms: float = 0.0

    def __post_init__(self) -> None:
        for field_name in ("frame_jitter_ms", "dispatch_jitter_ms",
                           "binder_jitter_ms", "gc_period_ms", "gc_pause_ms"):
            value = getattr(self, field_name)
            if value < 0:
                raise ValueError(f"{field_name} must be >= 0, got {value}")
        for field_name in ("frame_drop_probability", "binder_drop_probability"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 0.9:
                raise ValueError(
                    f"{field_name} must be in [0, 0.9] (1.0 would let a "
                    f"retry loop spin forever), got {value}"
                )
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"distribution must be one of {_DISTRIBUTIONS}, "
                f"got {self.distribution!r}"
            )
        if (self.gc_period_ms > 0) != (self.gc_pause_ms > 0):
            raise ValueError(
                "gc_period_ms and gc_pause_ms must be both zero or both "
                f"positive, got {self.gc_period_ms}/{self.gc_pause_ms}"
            )

    @property
    def is_noop(self) -> bool:
        """True when no fault class is active."""
        return (
            self.frame_jitter_ms == 0.0
            and self.frame_drop_probability == 0.0
            and self.dispatch_jitter_ms == 0.0
            and self.binder_jitter_ms == 0.0
            and self.binder_drop_probability == 0.0
            and self.gc_period_ms == 0.0
        )

    def scaled(self, factor: float, name: Optional[str] = None) -> "FaultProfile":
        """This profile with every magnitude and probability scaled.

        The jitter-sweep experiment runs one base profile at several
        factors; ``scaled(0.0)`` is exactly the no-op profile.
        """
        if factor < 0:
            raise ValueError(f"scale factor must be >= 0, got {factor}")
        gc_pause = self.gc_pause_ms * factor
        # Pauses scale; the period between them does not — but a zero-length
        # pause disables the class entirely (period alone is meaningless).
        gc_period = self.gc_period_ms if gc_pause > 0 else 0.0
        return replace(
            self,
            name=name or f"{self.name}x{factor:g}",
            frame_jitter_ms=self.frame_jitter_ms * factor,
            frame_drop_probability=min(0.9, self.frame_drop_probability * factor),
            dispatch_jitter_ms=self.dispatch_jitter_ms * factor,
            binder_jitter_ms=self.binder_jitter_ms * factor,
            binder_drop_probability=min(0.9, self.binder_drop_probability * factor),
            gc_period_ms=gc_period,
            gc_pause_ms=gc_pause,
        )


#: The no-fault reference regime.
NONE = FaultProfile(name="none")

#: Everyday noise on a healthy device: sub-millisecond scheduling slop,
#: occasional late frames, no drops.
MILD = FaultProfile(
    name="mild",
    frame_jitter_ms=1.0,
    dispatch_jitter_ms=0.3,
    binder_jitter_ms=0.5,
)

#: A loaded Pixel-class device: visible frame jank, heavier-tailed IPC
#: latency, periodic background GC.
PIXEL_LOADED = FaultProfile(
    name="pixel-loaded",
    frame_jitter_ms=4.0,
    frame_drop_probability=0.05,
    dispatch_jitter_ms=1.5,
    distribution="lognormal",
    binder_jitter_ms=2.0,
    gc_period_ms=900.0,
    gc_pause_ms=12.0,
)

#: The harshest regime CI proves the simulation survives: heavy jitter on
#: every channel, dropped frames, dropped Binder transactions, long GC
#: stalls.
ADVERSARIAL = FaultProfile(
    name="adversarial",
    frame_jitter_ms=8.0,
    frame_drop_probability=0.15,
    dispatch_jitter_ms=3.0,
    distribution="lognormal",
    binder_jitter_ms=5.0,
    binder_drop_probability=0.02,
    gc_period_ms=500.0,
    gc_pause_ms=30.0,
)

#: Named profiles addressable from the CLI (``--faults <name>``) and the
#: experiment scale (``ExperimentScale.faults``).
PROFILES: Dict[str, FaultProfile] = {
    p.name: p for p in (NONE, MILD, PIXEL_LOADED, ADVERSARIAL)
}


def profile(name: str) -> FaultProfile:
    """Look up a named profile; raises with the valid names on a miss."""
    try:
        return PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown fault profile {name!r}; valid profiles: "
            f"{', '.join(sorted(PROFILES))}"
        ) from None


# ---------------------------------------------------------------------------
# Ambient default profile (what `build_stack(faults=None)` resolves to)
# ---------------------------------------------------------------------------

_default_profile_name = "none"


def default_profile_name() -> str:
    """Profile applied when a stack is built without an explicit one."""
    return _default_profile_name


def set_default_profile(name: str) -> str:
    """Set the ambient profile; returns the previous name.

    The experiment runner sets this from ``ExperimentScale.faults`` around
    each experiment (in whichever worker process runs it), so every stack
    an experiment builds sees the same regime without threading a
    parameter through twenty call sites.
    """
    global _default_profile_name
    profile(name)  # validate eagerly
    previous = _default_profile_name
    _default_profile_name = name
    return previous


@contextmanager
def use_default_profile(name: str) -> Iterator[None]:
    """Scoped :func:`set_default_profile` (always restores on exit)."""
    previous = set_default_profile(name)
    try:
        yield
    finally:
        set_default_profile(previous)


# ---------------------------------------------------------------------------
# The runtime plan
# ---------------------------------------------------------------------------

class FaultPlan:
    """One profile bound to one simulation's seeded random streams.

    Each fault class draws from its own named sub-stream, so frame faults
    never shift the Binder fault draws and vice versa — adding a fault
    class to a profile perturbs only that class. Inactive classes consume
    no draws at all, which keeps a zero-magnitude plan bit-identical to
    running with no plan.
    """

    def __init__(self, fault_profile: FaultProfile, rng: SeededRng) -> None:
        self.profile = fault_profile
        self._frame = rng.child("frame")
        self._dispatch = rng.child("dispatch")
        self._binder = rng.child("binder")
        self._gc = rng.child("gc")
        # Pure-function staleness derivation material (query-side faults
        # must not consume a stream: compositor queries are read-only and
        # may happen in any order and any number of times).
        self._staleness_seed = rng.seed
        self._staleness_path = rng.path
        #: GC pause windows [(start, end)], generated lazily in time order.
        self._gc_windows: List[Tuple[float, float]] = []
        self._gc_horizon = 0.0
        #: Events deferred out of a GC pause (introspection/testing).
        self.events_deferred_by_gc = 0

    @property
    def is_noop(self) -> bool:
        return self.profile.is_noop

    @property
    def perturbs_dispatch(self) -> bool:
        """Whether the plan needs the scheduler's perturbation hook."""
        return (self.profile.dispatch_jitter_ms > 0
                or self.profile.gc_period_ms > 0)

    # ------------------------------------------------------------------
    # Shared latency sampler
    # ------------------------------------------------------------------
    def _latency(self, stream: SeededRng, mean: float) -> float:
        if mean <= 0:
            return 0.0
        if self.profile.distribution == "lognormal":
            return stream.lognormal(mean, sigma=0.6)
        return stream.uniform(0.0, 2.0 * mean)

    # ------------------------------------------------------------------
    # (a) frame faults — schedule side (Animator)
    # ------------------------------------------------------------------
    def frame_delay(self) -> float:
        """Extra delay before the next animation frame fires."""
        return self._latency(self._frame, self.profile.frame_jitter_ms)

    def drop_frame(self) -> bool:
        """Whether the frame about to fire renders nothing."""
        return self._frame.chance(self.profile.frame_drop_probability)

    # ------------------------------------------------------------------
    # (a') frame faults — query side (compositor)
    # ------------------------------------------------------------------
    def _frame_faults_at(self, index: int) -> Tuple[float, bool]:
        """(jitter delay, dropped?) of display frame ``index``.

        A pure function of ``(plan seed, index)`` — hashed, not streamed —
        so compositor queries are idempotent and order-independent.
        """
        stream = SeededRng(self._staleness_seed,
                          f"{self._staleness_path}/render/{index}")
        delay = stream.uniform(0.0, 2.0 * self.profile.frame_jitter_ms) \
            if self.profile.frame_jitter_ms > 0 else 0.0
        dropped = stream.chance(self.profile.frame_drop_probability)
        return delay, dropped

    def render_time(self, time_ms: float) -> float:
        """Timestamp of the content actually on glass at ``time_ms``.

        Under frame faults the displayed frame is stale: late by its
        jitter, and by one extra refresh interval per consecutively
        dropped frame before it. With no frame faults this is the
        identity, so fault-free compositing is untouched.
        """
        if (self.profile.frame_jitter_ms == 0.0
                and self.profile.frame_drop_probability == 0.0):
            return time_ms
        index = int(time_ms // _RENDER_FRAME_MS)
        delay, _ = self._frame_faults_at(index)
        staleness = delay
        for back in range(1, _MAX_CONSECUTIVE_DROPPED_FRAMES + 1):
            if index - back < 0:
                break
            _, dropped = self._frame_faults_at(index - back)
            if not dropped:
                break
            staleness += _RENDER_FRAME_MS
        return max(0.0, time_ms - staleness)

    # ------------------------------------------------------------------
    # (b) scheduler dispatch latency + (d) GC pauses
    # ------------------------------------------------------------------
    def perturb_event_time(self, time_ms: float, now: float, name: str) -> float:
        """The scheduler's perturbation hook: when does this event fire?

        Adds dispatch latency, then slips the event past any GC pause
        window covering it. The result is never earlier than requested, so
        the scheduler's "no scheduling in the past" invariant holds.
        """
        perturbed = time_ms + self._latency(
            self._dispatch, self.profile.dispatch_jitter_ms
        )
        deferred = self.defer_past_gc_pause(perturbed)
        if deferred > perturbed:
            self.events_deferred_by_gc += 1
        return deferred

    def defer_past_gc_pause(self, time_ms: float) -> float:
        """Slip ``time_ms`` to the end of the GC pause covering it."""
        if self.profile.gc_period_ms <= 0:
            return time_ms
        self._extend_gc_windows(time_ms)
        for start, end in reversed(self._gc_windows):
            if start <= time_ms < end:
                return end
            if end <= time_ms:
                break
        return time_ms

    def gc_windows_until(self, horizon_ms: float) -> List[Tuple[float, float]]:
        """GC pause windows up to ``horizon_ms`` (generated on demand)."""
        self._extend_gc_windows(horizon_ms)
        return [w for w in self._gc_windows if w[0] <= horizon_ms]

    def _extend_gc_windows(self, horizon_ms: float) -> None:
        while self._gc_horizon <= horizon_ms:
            period = self._gc.gauss_clipped(
                self.profile.gc_period_ms, 0.2 * self.profile.gc_period_ms,
                minimum=1.0,
            )
            pause = self._gc.gauss_clipped(
                self.profile.gc_pause_ms, 0.2 * self.profile.gc_pause_ms,
                minimum=0.0,
            )
            start = self._gc_horizon + period
            self._gc_windows.append((start, start + pause))
            self._gc_horizon = start + pause

    # ------------------------------------------------------------------
    # (c) Binder faults
    # ------------------------------------------------------------------
    def binder_delay(self) -> float:
        """Extra transit latency for one Binder transaction."""
        return self._latency(self._binder, self.profile.binder_jitter_ms)

    def drop_binder(self) -> bool:
        """Whether one Binder transaction is lost in transit."""
        return self._binder.chance(self.profile.binder_drop_probability)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(profile={self.profile.name!r})"


def plan_for(
    faults: "Optional[str | FaultProfile | FaultPlan]",
    rng: SeededRng,
) -> Optional[FaultPlan]:
    """Normalize a user-facing ``faults`` argument into a plan.

    ``None`` resolves through the ambient default profile; a no-op profile
    resolves to ``None`` (no plan installed at all), keeping the fault-free
    path exactly as fast and exactly as random as before this layer
    existed.
    """
    if isinstance(faults, FaultPlan):
        return None if faults.is_noop else faults
    if faults is None:
        resolved = profile(default_profile_name())
    elif isinstance(faults, str):
        resolved = profile(faults)
    else:
        resolved = faults
    if resolved.is_noop:
        return None
    return FaultPlan(resolved, rng)
