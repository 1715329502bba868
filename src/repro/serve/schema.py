"""Typed request/response schema for the feasibility query service.

A :class:`FeasibilityQuery` is the paper's core question made concrete:
*given this device, Android version, attacker/user behavior models and
fault regime, which animation durations D suppress the alert (Λ1) and
what touch-capture exposure does the attacker get there?* The answer is
a :class:`FeasibilityReport`; the service wraps it in a
:class:`QueryResponse` carrying cache/coalesce provenance.

Queries are *content-addressed*: :meth:`FeasibilityQuery.canonical_json`
serializes through the :mod:`repro.serialization` codec with sorted keys
and no incidental whitespace, and :meth:`FeasibilityQuery.content_hash`
is the sha256 of those bytes. Two queries that mean the same thing —
however they were constructed, whatever key order their JSON arrived
in — hash identically, which is what the service's single-flight
coalescing and result cache key on.

Validation is eager: constructing a query resolves the device against
the registry and checks the attacker/user/fault labels and sweep
numerics, so a bad query fails at the API edge with an actionable
error instead of deep inside a worker process.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..actors import attacker_names, get_attacker, get_user, user_names
from ..devices import DeviceProfile, device
from ..experiments.resilience import ExperimentFailure
from ..serialization import SerializableMixin
from ..sim.faults import PROFILES

__all__ = [
    "CaptureProbeStats",
    "DWindowPoint",
    "FeasibilityProbeTrial",
    "FeasibilityQuery",
    "FeasibilityReport",
    "QueryProvenance",
    "QueryResponse",
]


@dataclass(frozen=True, kw_only=True)
class FeasibilityQuery(SerializableMixin):
    """One attack-feasibility question, fully specified and validated."""

    #: Device model name as the registry knows it (``"pixel 2"``, ``"mi8"``).
    device: str
    #: Android version label when the model is ambiguous (``"9.0"``);
    #: ``None`` lets an unambiguous model resolve alone.
    android_version: Optional[str] = None
    #: Fault regime name from :data:`repro.sim.faults.PROFILES`.
    faults: str = "none"
    #: Registered attacker behavior label (:func:`repro.actors.attacker_names`).
    attacker: str = "draw-and-destroy"
    #: Registered user behavior label (:func:`repro.actors.user_names`).
    user: str = "stochastic-human"
    #: Attacking-window sweep grid: ``d_min_ms, d_min_ms + d_step_ms, ...``
    #: up to and including ``d_max_ms``.
    d_min_ms: float = 50.0
    d_max_ms: float = 200.0
    d_step_ms: float = 25.0
    #: Trials per grid point (suppression must hold across all of them).
    trials_per_d: int = 3
    #: Simulated attack duration per trial.
    trial_duration_ms: float = 2000.0
    #: Characters the user model types in the capture probe at the widest
    #: feasible D (0 skips the probe).
    probe_chars: int = 8
    probe_trials: int = 2
    #: Base seed; every trial derives its own stream from it.
    seed: int = 20220701

    def __post_init__(self) -> None:
        self.resolve_device()  # raises KeyError with suggestions
        get_attacker(self.attacker)
        get_user(self.user)
        if self.faults not in PROFILES:
            known = ", ".join(sorted(PROFILES))
            raise ValueError(
                f"unknown fault profile {self.faults!r}; known: {known}")
        for name in ("d_min_ms", "d_max_ms", "d_step_ms", "trial_duration_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)!r}")
        if self.d_min_ms <= 0 or self.d_max_ms < self.d_min_ms:
            raise ValueError(
                f"need 0 < d_min_ms <= d_max_ms, got "
                f"{self.d_min_ms!r}..{self.d_max_ms!r}")
        if self.d_step_ms <= 0:
            raise ValueError(f"d_step_ms must be > 0, got {self.d_step_ms!r}")
        if self.trials_per_d < 1:
            raise ValueError(
                f"trials_per_d must be >= 1, got {self.trials_per_d!r}")
        if self.trial_duration_ms <= 0:
            raise ValueError("trial_duration_ms must be > 0, got "
                             f"{self.trial_duration_ms!r}")
        if self.probe_chars < 0 or self.probe_trials < 0:
            raise ValueError("probe_chars and probe_trials must be >= 0")

    def resolve_device(self) -> DeviceProfile:
        """The registry profile this query targets."""
        return device(self.device, self.android_version)

    def d_values(self) -> Tuple[float, ...]:
        """The attacking-window grid, smallest to largest."""
        values = []
        d = self.d_min_ms
        while d <= self.d_max_ms + 1e-9:
            values.append(round(d, 6))
            d += self.d_step_ms
        return tuple(values)

    def canonical_json(self) -> str:
        """Key-sorted, whitespace-free JSON — the content-hash preimage."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def content_hash(self) -> str:
        """sha256 of :meth:`canonical_json`; the cache/coalesce key."""
        material = self.canonical_json().encode("utf-8")
        return hashlib.sha256(material).hexdigest()


@dataclass(frozen=True, kw_only=True)
class DWindowPoint(SerializableMixin):
    """Suppression statistics for one attacking-window grid value."""

    attacking_window_ms: float
    trials: int
    #: Trials whose worst outcome stayed Λ1 (alert fully suppressed).
    suppressed_trials: int
    suppression_rate: float
    #: Most-visible outcome label observed across the trials (``"Λ1"``..).
    worst_outcome: str


@dataclass(frozen=True, kw_only=True)
class FeasibilityProbeTrial(SerializableMixin):
    """One capture-probe typing session under the attack."""

    total_taps: int
    captured_taps: int
    stale_taps: int
    mean_percept_age_ms: float


@dataclass(frozen=True, kw_only=True)
class CaptureProbeStats(SerializableMixin):
    """Aggregated capture exposure at the widest feasible D."""

    attacking_window_ms: float
    trials: int
    total_taps: int
    captured_taps: int
    capture_rate: float
    stale_taps: int
    mean_percept_age_ms: float


@dataclass(frozen=True, kw_only=True)
class FeasibilityReport(SerializableMixin):
    """The answer: the D sweep, the feasibility verdict, the exposure."""

    query_hash: str
    device_key: str
    android_version: str
    faults: str
    attacker: str
    user: str
    #: One entry per grid value, smallest D first.
    points: Tuple[DWindowPoint, ...]
    #: Largest grid D with every trial suppressed at it *and* at every
    #: smaller grid D — ``None`` when even the smallest D leaks the alert.
    max_feasible_d_ms: Optional[float]
    #: The paper's Table II bound for this device, for comparison.
    published_upper_bound_d_ms: float
    #: The device's mean mistouch exposure (Tmis) per animation cycle.
    mean_tmis_ms: float
    #: Capture probe at ``max_feasible_d_ms`` (``None`` when infeasible
    #: or the query disabled probing).
    probe: Optional[CaptureProbeStats]

    @property
    def feasible(self) -> bool:
        return self.max_feasible_d_ms is not None

    def aggregates_json(self) -> str:
        """Canonical JSON of the whole report — the byte-identity surface
        the service acceptance test compares against in-process execution."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))


@dataclass(frozen=True, kw_only=True)
class QueryProvenance(SerializableMixin):
    """How a response was produced: executed, cache hit, or coalesced."""

    #: ``"executed"`` (ran trials), ``"cache"`` (served from the result
    #: cache), or ``"coalesced"`` (piggybacked on an identical in-flight
    #: query's execution).
    source: str
    query_hash: str
    #: Supervision attempts consumed (1 for a clean first run).
    attempts: int = 1
    #: Time spent waiting on the job queue before a worker picked it up.
    queue_ms: float = 0.0
    #: Worker wall time for the execution this response rode on.
    wall_ms: float = 0.0


@dataclass(frozen=True, kw_only=True)
class QueryResponse(SerializableMixin):
    """Report or structured failure, plus provenance — never an exception."""

    report: Optional[FeasibilityReport] = None
    failure: Optional[ExperimentFailure] = None
    provenance: QueryProvenance

    @property
    def ok(self) -> bool:
        return self.report is not None
