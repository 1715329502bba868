"""Parallel experiment execution with deterministic seed partitioning.

The reproduction suite is ~20 independent experiments. This module holds
the single source of truth for that set (:data:`EXPERIMENTS`), the worker
entry point and the result cache that
:func:`~repro.experiments.runner.run_all` uses to run it either
in-process (``jobs=1``, the serial reference implementation) or fanned
out over a :class:`concurrent.futures.ProcessPoolExecutor`.

Three properties make ``jobs=N`` bit-identical to ``jobs=1``:

* **Seed partitioning** — every experiment runs at
  ``scale.for_experiment(name)``, whose seed is a hash of the stable
  ``(scale.name, scale.seed, experiment_name)`` tuple. No experiment
  shares RNG state with another, so execution order and process placement
  cannot matter.
* **Pure workers** — experiment functions only read their scale argument;
  results are plain dataclasses that pickle losslessly (asserted by
  ``tests/experiments/test_parallel_determinism.py``).
* **Stable assembly** — results are keyed by experiment name and written
  into :class:`~repro.experiments.runner.AllResults` fields by name, never
  by completion order.

The same ``(name, scale)`` key also addresses an optional on-disk result
cache, so a repeated ``run_all`` invocation only re-runs experiments whose
scale (or the cache version) changed. Entries are wrapped in the
checksummed envelope from :mod:`repro.storage`, so corrupt or stale bytes
degrade to a counted miss instead of a poisoned report.

Execution is *supervised* (:class:`~repro.experiments.resilience.RunPolicy`):
worker exceptions, deadline overruns and even a broken process pool are
converted into per-experiment :class:`ExperimentFailure` records — the
surviving experiments complete and the run degrades gracefully instead of
discarding finished work. Because a retry re-runs a pure function of
``(name, scale)``, a crash-then-success retry is bit-identical to a run
that never crashed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from ..serialization import SerializableMixin
from .animation_curves import _run_fig2, _run_fig4
from .capture_rate import _run_fig7, _run_fig8
from .config import QUICK, ExperimentScale
from .corpus_study import _run_corpus_study
from .defense_eval import (
    _run_ipc_defense,
    _run_notification_defense,
    _run_toast_defense,
)
from .defense_tuning import _run_defense_tuning
from .equation_validation import _run_equation_validation
from .noise_sensitivity import _run_noise_sensitivity
from .outcomes_vs_d import _run_fig6
from .password_study import _run_stealthiness, _run_table3
from .real_world_apps import _run_table4
from .resilience import PoisonedResult, chaos_fire
from ..storage.store import DurableStore
from .supplementary import _run_fig7_with_cis, _run_table3_by_version
from .toast_continuity import _run_toast_continuity
from .trigger_comparison import _run_trigger_comparison
from .upper_bound import _run_load_impact, _run_table2

#: Bump when a change to experiment code invalidates previously cached
#: results (the cache key has no way to see code changes). Version 4:
#: entries are wrapped in the checksummed integrity envelope.
CACHE_VERSION = 4


@dataclass(frozen=True)
class ExperimentSpec:
    """One independently runnable experiment of the reproduction suite."""

    #: ``AllResults`` field name; also the seed-derivation / cache key.
    name: str
    #: Human-readable progress label (matches the serial runner's log).
    title: str
    #: Module-level experiment function (must pickle by qualified name).
    runner: Callable
    #: Whether ``runner`` accepts an :class:`ExperimentScale`.
    takes_scale: bool = True

    def run(self, scale: ExperimentScale, **params: Any):
        """Run at this experiment's derived seed; ``params`` are extra
        keyword arguments for the experiment function."""
        if not self.takes_scale:
            return self.runner(**params)
        return self.runner(scale.for_experiment(self.name), **params)


#: Every experiment of the suite, in the serial runner's historical order.
EXPERIMENTS: Tuple[ExperimentSpec, ...] = (
    ExperimentSpec("fig2", "Fig 2: notification slide-in curve",
                   _run_fig2, takes_scale=False),
    ExperimentSpec("fig4", "Fig 4: toast fade curves",
                   _run_fig4, takes_scale=False),
    ExperimentSpec("fig6", "Fig 6: notification outcomes vs D",
                   _run_fig6, takes_scale=False),
    ExperimentSpec("table2", "Table II: per-device upper bound of D",
                   _run_table2),
    ExperimentSpec("load_impact", "Load impact", _run_load_impact),
    ExperimentSpec("fig7", "Fig 7: capture rate vs D", _run_fig7),
    ExperimentSpec("fig8", "Fig 8: capture rate by Android version",
                   _run_fig8),
    ExperimentSpec("table3", "Table III: password stealing", _run_table3),
    ExperimentSpec("table4", "Table IV: real-world apps", _run_table4),
    ExperimentSpec("stealthiness", "Stealthiness study", _run_stealthiness),
    ExperimentSpec("toast_continuity", "Toast continuity",
                   _run_toast_continuity),
    ExperimentSpec("corpus", "Corpus prevalence study", _run_corpus_study),
    ExperimentSpec("defense_ipc", "Defense: IPC detector", _run_ipc_defense),
    ExperimentSpec("defense_notification", "Defense: enhanced notification",
                   _run_notification_defense),
    ExperimentSpec("defense_toast", "Defense: toast spacing",
                   _run_toast_defense),
    ExperimentSpec("equation_validation", "Eq. (2) validation",
                   _run_equation_validation),
    ExperimentSpec("defense_tuning", "Defense: decision-rule tuning",
                   _run_defense_tuning),
    ExperimentSpec("trigger_comparison", "Trigger-channel comparison",
                   _run_trigger_comparison),
    ExperimentSpec("table3_by_version",
                   "Supplementary: Table III by version",
                   _run_table3_by_version),
    ExperimentSpec("fig7_cis", "Supplementary: Fig 7 confidence intervals",
                   _run_fig7_with_cis),
    ExperimentSpec("noise_sensitivity",
                   "Noise sensitivity: faults vs capture rate / Tmis",
                   _run_noise_sensitivity),
)

_SPECS: Dict[str, ExperimentSpec] = {s.name: s for s in EXPERIMENTS}


def experiment_spec(name: str) -> ExperimentSpec:
    """Look up one registered experiment; unknown names raise a KeyError
    that lists every valid name."""
    spec = _SPECS.get(name)
    if spec is None:
        known = ", ".join(experiment_names())
        raise KeyError(f"unknown experiment {name!r}; known: {known}")
    return spec


@dataclass(frozen=True)
class ExperimentTiming(SerializableMixin):
    """Wall-clock accounting for one experiment of a ``run_all`` pass."""

    name: str
    seconds: float
    cached: bool = False
    #: Attempts consumed (1 for a clean first run or a cache/journal hit).
    attempts: int = 1
    #: True when the experiment ended as an ``ExperimentFailure``.
    failed: bool = False


def experiment_names() -> Tuple[str, ...]:
    return tuple(spec.name for spec in EXPERIMENTS)


@dataclass(frozen=True, kw_only=True)
class ExperimentRequest(SerializableMixin):
    """A fully-typed ``run_experiment`` invocation, validated eagerly.

    The loose-kwargs form of :func:`repro.api.run_experiment` hid two
    traps: extra params silently cannot cross the process boundary, and
    ``jobs != 1`` buys a clean worker process for isolation — never
    speed, since one experiment is one unit of work. This request type
    makes both rules explicit and rejects the illegal combinations at
    construction, before any work is scheduled.
    """

    #: Entry of :func:`experiment_names` (``"fig7"``, ``"table3"``, ...).
    name: str
    scale: ExperimentScale = QUICK
    #: Overrides the scale's ambient fault regime when set.
    faults: Optional[str] = None
    #: ``1`` runs in-process; anything else runs in one worker subprocess
    #: for isolation (never parallelism — see class docstring).
    jobs: int = 1
    #: ``True`` reproduces the experiment's ``run_all`` slot exactly;
    #: ``False`` calls the implementation directly with ``scale`` as given.
    derive_seed: bool = True
    #: Extra keyword params for the experiment function. Only legal with
    #: ``jobs=1`` — params cannot cross the process boundary.
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        experiment_spec(self.name)  # KeyError listing known names
        if self.faults is not None:
            from ..sim.faults import PROFILES

            if self.faults not in PROFILES:
                known = ", ".join(sorted(PROFILES))
                raise ValueError(
                    f"unknown fault profile {self.faults!r}; known: {known}")
        if self.jobs < 0:
            raise ValueError(f"jobs must be >= 0, got {self.jobs!r}")
        if self.jobs != 1 and self.params:
            raise ValueError(
                "experiment params cannot cross the process boundary; "
                "run with jobs=1, or drop params (jobs != 1 buys a clean "
                "worker process for isolation, not speed)")
        if self.jobs != 1 and not self.derive_seed:
            raise ValueError(
                "derive_seed=False calls the experiment implementation "
                "directly and therefore runs in-process; use jobs=1")
        object.__setattr__(self, "params", dict(self.params))

    def effective_scale(self) -> ExperimentScale:
        """The scale after applying the ``faults`` override."""
        if self.faults is not None:
            return self.scale.with_faults(self.faults)
        return self.scale


def reset_id_allocators() -> None:
    """Restart the process-wide debug id counters.

    Window/toast/token ids are allocated by module-global counters; some
    leak into results (``ToastSwitch`` records toast ids). Resetting them
    at each experiment's start makes every result a pure function of
    ``(experiment name, scale)`` — the property the determinism tests
    assert — no matter which process ran what beforehand.
    """
    from ..toast.toast import reset_toast_ids
    from ..toast.token_queue import reset_token_ids
    from ..windows.window import reset_window_ids

    reset_toast_ids()
    reset_token_ids()
    reset_window_ids()


@contextlib.contextmanager
def worker_scope(faults: Optional[str]) -> Iterator["TrialExecutor"]:
    """The setup every unit of work runs under, whatever runs it.

    Restarts the id allocators, installs ``faults`` as the ambient
    default fault profile (so every stack built inside — however deep in
    the call tree — sees the same regime serially or in a pool process)
    and a fresh stack-reuse :class:`TrialExecutor`, which it yields and
    drops on exit, keeping workers lean. The experiment worker, the
    campaign shard worker and ``run_experiment`` with params all run
    their work inside it.
    """
    from ..sim.faults import use_default_profile
    from .engine import TrialExecutor, use_executor

    reset_id_allocators()
    with use_default_profile(faults), \
            use_executor(TrialExecutor()) as executor:
        yield executor


def run_one_isolated(name: str, scale: ExperimentScale):
    """Run one experiment exactly as a pool worker would; return its result.

    The supported cross-process entry point: module-level (pickles by
    qualified name), resets the id allocators, installs the scale's
    fault regime and a fresh stack-reuse executor, and runs ``name`` at
    its derived per-experiment seed — so the result is bit-identical to
    the same experiment's slot in a full ``run_all`` pass.
    """
    _, result, _, _, _ = _execute_one(name, scale)
    return result


def _execute_one(
    name: str,
    scale: ExperimentScale,
    collect_metrics: bool = False,
    profile_dir: Optional[Path] = None,
    attempt: int = 1,
):
    """Worker entry point: run one named experiment at its derived scale.

    Module-level so it pickles for :class:`ProcessPoolExecutor`; returns
    ``(name, result, seconds, samples, pid)`` where ``samples`` is the
    experiment's metric snapshot (``None`` unless ``collect_metrics``) and
    ``pid`` identifies the worker process for utilization accounting. The
    experiment runs inside :func:`worker_scope` at the scale's fault
    regime.

    ``attempt`` numbers the supervision retry (1-based). It is consulted
    *only* by the chaos harness — the experiment's seed derivation never
    sees it, which is what makes a crash-then-retry run bit-identical to
    a clean one. A ``poison`` fault point returns a bare
    :class:`PoisonedResult` instead, for the supervisor to reject.

    With ``collect_metrics`` the experiment gets its own
    :class:`~repro.obs.metrics.MetricsRegistry` — registries never cross
    the process boundary, only their pickled sample snapshots do. With
    ``profile_dir`` the experiment body runs under :mod:`cProfile` and its
    stats dump to ``profile_dir/<name>.prof``.
    """
    from ..obs.context import use_metrics
    from ..obs.metrics import MetricsRegistry

    if chaos_fire(name, attempt) == "poison":
        return PoisonedResult(name=name, attempt=attempt)

    spec = _SPECS[name]
    registry = MetricsRegistry() if collect_metrics else None
    start = time.perf_counter()
    metrics_ctx = (use_metrics(registry) if collect_metrics
                   else contextlib.nullcontext())
    with worker_scope(scale.faults), metrics_ctx:
        if profile_dir is not None:
            import cProfile

            profiler = cProfile.Profile()
            result = profiler.runcall(spec.run, scale)
            profile_dir.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(profile_dir / f"{name}.prof")
        else:
            result = spec.run(scale)
    seconds = time.perf_counter() - start
    samples = registry.samples() if registry is not None else None
    return name, result, seconds, samples, os.getpid()


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro/experiments``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro" / "experiments"


class ResultCache:
    """Envelope-per-key store of experiment results.

    Keys are ``(experiment_name, every ExperimentScale field,
    CACHE_VERSION)`` — exactly the inputs the result is a pure function
    of. Entries are checksummed envelopes read and written through a
    :class:`~repro.storage.store.DurableStore`: corrupt, truncated or
    stale-version bytes degrade to a miss, counted on
    :attr:`integrity_rejects` and the ambient ``repro.obs`` registry as
    ``cache_integrity_rejects_total``. Writes go through collision-free
    temp files, so concurrent ``run_all`` invocations sharing a cache
    directory cannot clobber each other mid-write.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        # The cache is optional-durability: a failed write is a counted
        # miss on the next run, never a failed experiment.
        self._store = DurableStore("cache", required=False)

    @property
    def integrity_rejects(self) -> int:
        """Entries rejected by envelope validation since construction."""
        return self._store.integrity_rejects

    def path_for(self, name: str, scale: ExperimentScale) -> Path:
        fields = dataclasses.asdict(scale)
        material = ":".join(
            [f"v{CACHE_VERSION}", name]
            + [f"{key}={fields[key]!r}" for key in sorted(fields)]
        )
        digest = hashlib.sha256(material.encode("utf-8")).hexdigest()[:16]
        return self.directory / f"{name}-{scale.name}-{digest}.pkl"

    def load(self, name: str, scale: ExperimentScale):
        return self._store.read_envelope(self.path_for(name, scale),
                                         CACHE_VERSION)

    def store(self, name: str, scale: ExperimentScale, result) -> bool:
        """Persist one result; ``False`` means the write degraded to a
        miss (the run carries on, the entry recomputes next time)."""
        return self._store.write_envelope(self.path_for(name, scale),
                                          CACHE_VERSION, result)
