"""Which program functions the traced run wraps, and the per-layer
metrics derived from the spans and the program's own exact counters."""

from __future__ import annotations

from typing import Dict, List

from common import percentile
from tracer import Tracer

#: ``repro.obs`` counters read as exact counts in the traced run.
EVENTS = "sim_scheduler_events_dispatched_total"
CANCELLED = "sim_scheduler_events_cancelled_total"
TRANSACTIONS = "binder_transactions_sent_total"
TRIALS = "engine_trials_total"
STACKS_REUSED = "engine_stacks_reused_total"
STACKS_BUILT = "engine_stacks_built_total"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are built from."""
    import repro.attacks.toast_attack as toast_attack
    import repro.experiments.campaign as campaign
    import repro.experiments.corpus_study as corpus_study
    import repro.experiments.aggregate as aggregate
    import repro.staticanalysis.report as static_report
    import repro.toast as toast_pkg
    import repro.toast.lifecycle as lifecycle
    from repro.attacks.timing import UpperBoundFinder
    from repro.binder.router import BinderRouter
    from repro.experiments.engine import TrialExecutor
    from repro.sim.faults import FaultPlan
    from repro.sim.scheduler import EventScheduler

    patch = tracer.patch
    # One span per trial; its durations give the trial-wall percentiles.
    patch(TrialExecutor, "run", "engine.trial", keep_durations=True)
    # Per-event boundaries: totals and self time only.
    patch(EventScheduler, "step", "sim.step", record=False)
    patch(BinderRouter, "transact", "binder.transact", record=False)
    # The scheduler captures the bound hook when a stack installs its
    # fault plan, so this must be patched before stacks are built.
    patch(FaultPlan, "perturb_event_time", "faults.perturb", record=False)
    # analyze_switches calls analyze_switch through the module global;
    # toast_attack and the package imported both names directly.
    for owner in (lifecycle, toast_pkg):
        patch(owner, "analyze_switch", "toast.analyze_switch", record=False)
    for owner in (lifecycle, toast_pkg, toast_attack):
        patch(owner, "analyze_switches", "toast.analyze_switches")
    patch(UpperBoundFinder, "find", "attacks.upper_bound_find")
    for owner in (static_report, corpus_study):
        patch(owner, "run_prevalence_study", "staticanalysis.sample")
    for owner in (aggregate, campaign):
        patch(owner, "default_trial_metrics", "aggregate.extract",
              record=False)
    patch(aggregate.CampaignAggregate, "observe", "aggregate.observe",
          record=False)
    patch(aggregate.CampaignAggregate, "merge", "aggregate.merge",
          record=False)


def counter(registry, name: str) -> int:
    return int(registry.counter(name).value)


def exact_counts(registry) -> Dict[str, int]:
    """The simulated statistics that must repeat bit-for-bit."""
    return {name: counter(registry, name)
            for name in (EVENTS, CANCELLED, TRANSACTIONS, TRIALS)}


def trial_metrics(tracer: Tracer, registry) -> Dict[str, float]:
    """Engine, scheduler, Binder and fault-layer numbers of a traced pass."""
    trials = counter(registry, TRIALS)
    events = counter(registry, EVENTS)
    built = counter(registry, STACKS_BUILT)
    reused = counter(registry, STACKS_REUSED)
    walls_us: List[float] = [d * 1e6 for d in tracer.durations("engine.trial")]
    per_trial = max(trials, 1)
    return {
        "engine.trials": trials,
        "engine.trial_us_p50": percentile(walls_us, 50) if walls_us else 0.0,
        "engine.trial_us_p99": percentile(walls_us, 99) if walls_us else 0.0,
        "engine.stack_reuse_frac": reused / (built + reused)
        if built + reused else 0.0,
        "sim.events_per_trial": events / per_trial,
        "sim.cancelled_per_trial": counter(registry, CANCELLED) / per_trial,
        "sim.step_self_us": tracer.self_time("sim.step") * 1e6
        / max(tracer.calls("sim.step"), 1),
        "sim.host_us_per_event": tracer.total("engine.trial") * 1e6
        / max(events, 1),
        "binder.transactions_per_trial":
            counter(registry, TRANSACTIONS) / per_trial,
        "binder.transact_self_us": tracer.self_time("binder.transact") * 1e6
        / max(tracer.calls("binder.transact"), 1),
        "faults.perturb_calls": tracer.calls("faults.perturb"),
        "faults.perturb_self_us": tracer.self_time("faults.perturb") * 1e6
        / max(tracer.calls("faults.perturb"), 1),
    }
