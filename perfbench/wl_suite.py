"""``suite-quick``: the reproduction suite a paper reproducer runs.

One pass is ``run_all(QUICK, jobs=1)`` with no result cache, then the
same suite at ``jobs=2``. It is the only workload that reaches
``toast.lifecycle`` (Table III), ``staticanalysis`` (the corpus study)
and ``attacks.timing.UpperBoundFinder`` (Table II).
"""

from __future__ import annotations

import gc
import time
from typing import Dict, List

from common import ROOT, SETUP_REPEATS, check, host_sample, import_seconds, \
    median

#: Worker processes of the parallel half of a pass (the box's core count
#: when the workload was defined).
PARALLEL_JOBS = 2
#: Experiments whose runner wall is reported separately; the rest are
#: summed into ``runner.rest_s``.
NAMED = ("table2", "table3", "corpus", "fig7", "fig7_cis", "fig8")
GOLDEN = ROOT / "tests" / "experiments" / "golden" / "report_quick.md"


def _scale(seed: int):
    from repro.experiments.config import QUICK

    # Seed 0 is QUICK itself, whose report the golden file pins.
    return QUICK.with_seed(QUICK.seed + seed)


def setup() -> List[float]:
    return [import_seconds("repro.experiments.runner")
            for _ in range(SETUP_REPEATS)]


def _checked_report(results, seed: int) -> str:
    from repro.experiments.runner import format_report

    check(results.ok, f"suite failures: {[f.name for f in results.failures]}")
    report = format_report(results)
    if seed == 0:
        check(report == GOLDEN.read_text(encoding="utf-8"),
              "QUICK report differs from the golden report")
    return report


def run(seed: int, seconds: float) -> Dict[str, object]:
    setup_s = setup()
    from repro.experiments.runner import run_all

    scale = _scale(seed)
    serial: List[float] = []
    parallel: List[float] = []
    experiment_s: Dict[str, List[float]] = {}
    attempted = 0
    reference = None
    deadline = time.perf_counter() + seconds
    while not serial or time.perf_counter() < deadline:
        host_sample(2)
        # Start each timed suite without the previous pass's garbage.
        gc.collect()
        start = time.perf_counter()
        one = run_all(scale, jobs=1)
        serial.append(time.perf_counter() - start)
        host_sample(2)
        gc.collect()
        start = time.perf_counter()
        many = run_all(scale, jobs=PARALLEL_JOBS)
        parallel.append(time.perf_counter() - start)

        for timing in one.timings:
            experiment_s.setdefault(timing.name, []).append(timing.seconds)
        attempted += len(one.timings) + len(many.timings)
        # A failed experiment fails the run here.
        report = _checked_report(one, seed)
        check(report == _checked_report(many, seed),
              f"jobs={PARALLEL_JOBS} report differs from the serial report")
        check(reference in (None, report), "report changed between passes")
        reference = report
    # Each experiment's wall is the median over its own serial runs, so
    # the figures below compare like with like from run to run. The mean
    # stands in for p50: the median of 21 unequal experiments is one
    # ~0.1 s experiment, and it spread over the bound between runs.
    per_experiment_ms = [median(walls) * 1000.0
                         for walls in experiment_s.values()]
    print(f"suite-quick: {len(serial)} passes; suite_serial_s "
          f"{median(serial):.4f}, suite_parallel_s {median(parallel):.4f}")
    return {
        "setup": setup_s,
        "attempted": attempted,
        "failed": 0,
        "wall_s": median(serial),
        "rate_per_s": len(experiment_s) / median(parallel),
        "p50_ms": sum(per_experiment_ms) / len(per_experiment_ms),
        "p99_ms": max(per_experiment_ms),
        "host_bound": ("setup_s", "wall_s", "rate_per_s", "p50_ms",
                       "p99_ms"),
    }


def _install(tracer) -> None:
    import layers
    from repro.experiments.parallel import ExperimentSpec

    layers.install(tracer)
    tracer.patch(ExperimentSpec, "run", "runner.experiment",
                 operation=lambda spec, scale: spec.name)


def run_traced(seed: int, tracer_factory) -> Dict[str, object]:
    """One untraced serial pass, then two traced ones under exact counters."""
    import layers
    from repro.experiments.runner import run_all
    from repro.obs import MetricsRegistry, use_metrics

    scale = _scale(seed)
    start = time.perf_counter()
    plain = run_all(scale, jobs=1)
    untraced = time.perf_counter() - start
    report = _checked_report(plain, seed)
    seconds = {t.name: t.seconds for t in plain.timings}

    passes = []
    for index in range(2):
        tracer = tracer_factory()
        registry = MetricsRegistry()
        with tracer.installed(_install), use_metrics(registry):
            start = time.perf_counter()
            traced = run_all(scale, jobs=1)
            wall = time.perf_counter() - start
        check(_checked_report(traced, seed) == report,
              "traced report differs from the untraced report")
        passes.append((tracer, registry, wall))
    counts = [layers.exact_counts(registry) for _, registry, _ in passes]
    check(counts[0] == counts[1],
          f"exact counts differ between traced passes: {counts}")
    tracer, registry, _ = passes[0]

    out = {f"runner.{name}_s": seconds[name] for name in NAMED}
    out["runner.rest_s"] = sum(v for k, v in seconds.items()
                               if k not in NAMED)
    out["runner.critical_path_s"] = max(seconds.values())
    out["attacks.upper_bound_find_s"] = tracer.total(
        "attacks.upper_bound_find")
    out["toast.analyze_switch_calls"] = tracer.calls("toast.analyze_switch")
    out["toast.analyze_switch_s"] = tracer.total("toast.analyze_switch")
    out["staticanalysis.apps_sampled"] = plain.corpus.measured.total
    out["staticanalysis.sample_s"] = tracer.total("staticanalysis.sample")
    out.update(layers.trial_metrics(tracer, registry))
    out["trace.overhead_frac"] = median([w for _, _, w in passes]) \
        / untraced - 1.0
    return {"attempted": 3 * len(plain.timings), "failed": 0,
            "per_layer": out, "tracer": tracer}
