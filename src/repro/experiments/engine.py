"""Declarative scenario engine: TrialSpec / ScenarioMatrix / TrialExecutor.

Every experiment in the suite boils down to the same skeleton: build a
simulated Android stack, wire a scenario onto it (attack, defense, user),
drive the simulation, and extract one measurement. This module owns that
skeleton once:

* a **scenario registry** — named functions ``fn(stack, **params)`` that
  run one trial on an already-booted :class:`~repro.stack.AndroidStack`;
* :class:`TrialSpec` — the declarative description of one trial (which
  scenario, which seed, which device, which fault regime, which params);
* :class:`ScenarioMatrix` — a sweep expressed as ``devices × versions ×
  attack configs × fault profiles × trials``, with per-cell seeds derived
  through :meth:`ExperimentScale.for_experiment` so every cell owns an
  independent RNG universe;
* :class:`TrialExecutor` — runs specs with **stack reuse**: one booted
  stack is kept per (device, alert mode, tracing) and
  :meth:`~repro.stack.AndroidStack.reset` between trials instead of
  rebuilt. The reset contract (see ``tests/sim/test_stack_reuse.py``)
  guarantees a reused stack is bit-identical to a fresh one, so reuse is
  purely a throughput optimization — results cannot change.

Experiments install an executor ambiently (:func:`scoped_executor`), and
the trial wrappers in :mod:`repro.experiments.scenarios` route through
:func:`run_trial`, which picks the ambient executor up; standalone callers
(unit tests, the CLI) get the old build-per-trial behaviour unchanged.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .._registry import unknown_label_error
from ..devices.profiles import DeviceProfile
from ..devices.registry import devices_by_version, reference_device
from ..obs.context import current_metrics
from ..stack import AndroidStack, build_stack
from ..systemui.system_ui import AlertMode
from .config import ExperimentScale

#: A scenario takes a booted stack plus keyword params, runs one trial and
#: returns its measurement. It must leave nothing behind that
#: ``AndroidStack.reset`` does not undo (i.e. mutate only the stack and
#: objects it created itself).
ScenarioFn = Callable[..., Any]

_SCENARIOS: Dict[str, ScenarioFn] = {}


def scenario(name: str) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register ``fn`` as the scenario called ``name``."""

    def register(fn: ScenarioFn) -> ScenarioFn:
        if name in _SCENARIOS:
            raise ValueError(f"scenario {name!r} is already registered")
        _SCENARIOS[name] = fn
        return fn

    return register


def get_scenario(name: str) -> ScenarioFn:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise unknown_label_error("scenario", name, _SCENARIOS) from None


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def drive_until(
    stack: AndroidStack,
    predicate: Callable[[], bool],
    step_ms: float = 500.0,
    max_ms: float = 600_000.0,
) -> None:
    """Advance the simulation until ``predicate()`` or the horizon."""
    deadline = stack.now + max_ms
    while not predicate() and stack.now < deadline:
        stack.run_for(step_ms)
    if not predicate():
        raise RuntimeError("scenario did not converge before the horizon")


# ---------------------------------------------------------------------------
# Trial specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialSpec:
    """One trial, fully described: the unit the executor runs.

    ``params`` are passed verbatim to the scenario function; they may hold
    arbitrary objects (a :class:`~repro.users.participant.Participant`, an
    attack config) — the spec is declarative, not serializable.
    """

    scenario: str
    seed: int
    profile: Optional[DeviceProfile] = None
    alert_mode: AlertMode = AlertMode.ANALYTIC
    trace_enabled: bool = False
    #: Fault regime for the stack (profile name, FaultProfile, or ``None``
    #: for the ambient default) — same semantics as ``build_stack``.
    faults: Any = None
    params: Mapping[str, Any] = field(default_factory=dict)
    #: Optional behavior-model axes. Labels are resolved through the
    #: actor registries (:mod:`repro.actors`) at execution time and the
    #: resolved model objects merged into the scenario's params as
    #: ``attacker`` / ``user``. ``None`` (the default) leaves the
    #: scenario's own behavior untouched — specs that never mention the
    #: axes run exactly as they always have.
    attacker: Optional[str] = None
    user: Optional[str] = None


@dataclass(frozen=True)
class TrialOutcome:
    """A spec paired with what its scenario returned.

    When the trial ran under an ambient metrics registry,
    ``metrics`` holds the per-trial sample delta (what *this* trial
    contributed to the experiment's registry). Excluded from equality so
    outcomes compare by measurement alone — wall-clock series differ run
    to run even when results are identical.
    """

    spec: TrialSpec
    value: Any
    metrics: Optional[Tuple[Any, ...]] = field(
        default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Declarative sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioMatrix:
    """A sweep: ``devices × versions × configs × fault profiles × trials``.

    ``devices`` lists explicit device profiles; ``versions`` expands to
    every evaluation device running those Android versions (Table II).
    When both are empty the matrix runs on the reference device. Each
    entry of ``configs`` is a parameter mapping merged over
    ``base_params`` — the "attack config" axis. ``attackers`` and
    ``users`` sweep registered behavior models the same way; when left
    empty the axis collapses to a single unlabeled cell and the matrix
    — including every per-cell seed — is identical to one that predates
    the actor layer.

    Every cell derives its own seed through
    :meth:`ExperimentScale.for_experiment` on a stable cell key, so cells
    are order-independent, collision-free and reproducible — the same
    partitioning discipline the experiment registry uses.
    """

    name: str
    scenario: str
    scale: ExperimentScale
    devices: Tuple[DeviceProfile, ...] = ()
    versions: Tuple[str, ...] = ()
    configs: Tuple[Mapping[str, Any], ...] = ({},)
    fault_profiles: Tuple[str, ...] = ()
    trials: int = 1
    alert_mode: AlertMode = AlertMode.ANALYTIC
    trace_enabled: bool = False
    base_params: Mapping[str, Any] = field(default_factory=dict)
    #: Behavior-model axes: registered attacker / user labels to sweep.
    attackers: Tuple[str, ...] = ()
    users: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.configs:
            raise ValueError("configs must not be empty (use ({},) for one)")

    # ------------------------------------------------------------------
    def resolved_devices(self) -> Tuple[DeviceProfile, ...]:
        devices = list(self.devices)
        groups = devices_by_version()
        for version in self.versions:
            try:
                devices.extend(groups[version])
            except KeyError:
                known = ", ".join(sorted(groups, key=float))
                raise KeyError(
                    f"matrix {self.name!r}: no devices run Android "
                    f"{version!r}; evaluated versions: {known}"
                ) from None
        if not devices:
            devices = [reference_device()]
        return tuple(devices)

    def resolved_faults(self) -> Tuple[str, ...]:
        return self.fault_profiles or (self.scale.faults,)

    @staticmethod
    def _config_key(config: Mapping[str, Any]) -> str:
        if not config:
            return "default"
        return ",".join(f"{k}={config[k]!r}" for k in sorted(config))

    def cell_seed(self, device: DeviceProfile, config: Mapping[str, Any],
                  faults: str, trial: int,
                  attacker: Optional[str] = None,
                  user: Optional[str] = None) -> int:
        cell = (f"{self.name}/{device.key}/{self._config_key(config)}"
                f"/{faults}/{trial}")
        if attacker is not None or user is not None:
            # Only labeled cells extend the key: a matrix without behavior
            # axes derives byte-identical seeds to the pre-actor engine.
            cell += f"/attacker={attacker}/user={user}"
        return self.scale.for_experiment(cell).seed

    def _attacker_axis(self) -> Tuple[Optional[str], ...]:
        return self.attackers or (None,)

    def _user_axis(self) -> Tuple[Optional[str], ...]:
        return self.users or (None,)

    def cells(self) -> Iterator[TrialSpec]:
        """Yield one :class:`TrialSpec` per cell, in deterministic order."""
        for device in self.resolved_devices():
            for config in self.configs:
                for faults in self.resolved_faults():
                    for attacker in self._attacker_axis():
                        for user_label in self._user_axis():
                            for trial in range(self.trials):
                                params = dict(self.base_params)
                                params.update(config)
                                yield TrialSpec(
                                    scenario=self.scenario,
                                    seed=self.cell_seed(
                                        device, config, faults, trial,
                                        attacker=attacker, user=user_label),
                                    profile=device,
                                    alert_mode=self.alert_mode,
                                    trace_enabled=self.trace_enabled,
                                    faults=faults,
                                    params=params,
                                    attacker=attacker,
                                    user=user_label,
                                )

    def __len__(self) -> int:
        return (len(self.resolved_devices()) * len(self.configs)
                * len(self.resolved_faults()) * len(self._attacker_axis())
                * len(self._user_axis()) * self.trials)


# ---------------------------------------------------------------------------
# Execution with stack reuse
# ---------------------------------------------------------------------------

@dataclass
class ExecutorStats:
    """Throughput accounting: how much rebuild work reuse saved."""

    trials_run: int = 0
    stacks_built: int = 0
    stacks_reused: int = 0

    @property
    def reuse_fraction(self) -> float:
        total = self.stacks_built + self.stacks_reused
        return self.stacks_reused / total if total else 0.0


class TrialExecutor:
    """Runs trial specs against a pool of reusable Android stacks.

    One stack is pooled per ``(device, alert mode, tracing)`` — the
    dimensions baked in at boot. Everything else (seed, fault regime,
    scenario wiring) is per-trial and handled by
    :meth:`AndroidStack.reset`, which is proven bit-identical to a fresh
    ``build_stack`` by the reuse property suite. ``reuse=False`` degrades
    to build-per-trial (the benchmark's comparison arm).

    The executor is deliberately single-threaded: parallelism in this
    suite lives at the experiment level (``run_all`` fans whole
    experiments out to worker processes), where it composes with reuse
    instead of fighting it for the pooled stacks.
    """

    def __init__(self, reuse: bool = True) -> None:
        self._reuse = reuse
        self._pool: Dict[Tuple[int, AlertMode, bool], AndroidStack] = {}
        self.stats = ExecutorStats()

    # ------------------------------------------------------------------
    def lease(
        self,
        seed: int,
        profile: Optional[DeviceProfile] = None,
        alert_mode: AlertMode = AlertMode.ANALYTIC,
        trace_enabled: bool = False,
        faults: Any = None,
    ) -> AndroidStack:
        """Hand out a stack booted (or reset) for exactly these settings.

        The returned stack is valid until the next ``lease`` with the same
        (device, mode, tracing) — callers must finish extracting results
        before leasing again.
        """
        if profile is None:
            profile = reference_device()
        key = (id(profile), alert_mode, trace_enabled)
        stack = self._pool.get(key) if self._reuse else None
        reused = stack is not None
        if stack is None:
            stack = build_stack(
                seed=seed,
                profile=profile,
                alert_mode=alert_mode,
                trace_enabled=trace_enabled,
                faults=faults,
            )
            self._pool[key] = stack
            self.stats.stacks_built += 1
        else:
            stack.reset(seed, trace_enabled=trace_enabled, faults=faults)
            self.stats.stacks_reused += 1
        registry = current_metrics()
        if registry is not None:
            registry.counter("engine_stacks_reused_total" if reused
                             else "engine_stacks_built_total").inc()
            registry.gauge("engine_stack_reuse_hit_rate").set(
                self.stats.reuse_fraction)
        return stack

    # ------------------------------------------------------------------
    def run(self, spec: TrialSpec) -> Any:
        """Run one spec and return the scenario's measurement."""
        fn = get_scenario(spec.scenario)
        params: Mapping[str, Any] = spec.params
        if spec.attacker is not None or spec.user is not None:
            # Resolve behavior labels before leasing a stack so a typo
            # fails with the registry's suggesting KeyError, not mid-trial.
            from ..actors import get_attacker, get_user

            params = dict(params)
            if spec.attacker is not None:
                params["attacker"] = get_attacker(spec.attacker)
            if spec.user is not None:
                params["user"] = get_user(spec.user)
        registry = current_metrics()
        start = time.perf_counter() if registry is not None else 0.0
        stack = self.lease(
            seed=spec.seed,
            profile=spec.profile,
            alert_mode=spec.alert_mode,
            trace_enabled=spec.trace_enabled,
            faults=spec.faults,
        )
        self.stats.trials_run += 1
        value = fn(stack, **params)
        if registry is not None:
            # Wall-clock time per trial (lease + scenario). Observation
            # only — the value never feeds back into the simulation, so
            # results stay deterministic even though this number is not.
            registry.counter("engine_trials_total").inc()
            registry.histogram("engine_trial_wall_ms").observe(
                (time.perf_counter() - start) * 1000.0)
        return value

    def map(self, specs: Sequence[TrialSpec]) -> List[Any]:
        """Run specs in order, returning their measurements."""
        return [self.run(spec) for spec in specs]

    def run_matrix(self, matrix: ScenarioMatrix) -> List[TrialOutcome]:
        """Run every cell of a matrix, pairing specs with results.

        Under an ambient metrics registry each outcome additionally
        carries its per-trial metric delta (see :class:`TrialOutcome`).
        """
        registry = current_metrics()
        if registry is None:
            return [TrialOutcome(spec=spec, value=self.run(spec))
                    for spec in matrix.cells()]
        from ..obs.metrics import diff_samples

        outcomes = []
        before = registry.samples()
        for spec in matrix.cells():
            value = self.run(spec)
            after = registry.samples()
            outcomes.append(TrialOutcome(
                spec=spec, value=value,
                metrics=diff_samples(before, after)))
            before = after
        return outcomes


# ---------------------------------------------------------------------------
# Ambient executor
# ---------------------------------------------------------------------------

_ambient_executor: Optional[TrialExecutor] = None


def current_executor() -> Optional[TrialExecutor]:
    """The ambient executor installed by the enclosing experiment, if any."""
    return _ambient_executor


@contextmanager
def use_executor(executor: TrialExecutor) -> Iterator[TrialExecutor]:
    """Install ``executor`` ambiently for the duration of the block."""
    global _ambient_executor
    previous = _ambient_executor
    _ambient_executor = executor
    try:
        yield executor
    finally:
        _ambient_executor = previous


@contextmanager
def scoped_executor() -> Iterator[TrialExecutor]:
    """The ambient executor, or a fresh one scoped to this block.

    Experiments wrap their bodies in this: when the parallel runner (or an
    outer experiment — ``whatif`` calls into ``defense_eval``) already
    installed an executor, its stack pool is shared; otherwise the
    experiment gets reuse on its own, and the pool is dropped on exit.
    """
    if _ambient_executor is not None:
        yield _ambient_executor
        return
    with use_executor(TrialExecutor()) as executor:
        yield executor


def run_trial(spec: TrialSpec) -> Any:
    """Run one spec through the ambient executor, or fresh-build without.

    This is the single entry point the scenario wrappers use: under an
    experiment it gets stack reuse for free; standalone (unit tests, CLI
    one-offs) it behaves exactly like the historical build-per-trial path.
    """
    executor = current_executor()
    if executor is None:
        executor = TrialExecutor(reuse=False)
    return executor.run(spec)
