"""``campaign-fleet``: a sharded campaign over the whole device registry.

The ``notification`` overlay-attack scenario on all 30 devices (Android
8/9/10/11) × fault profiles {none, pixel-loaded, adversarial} × D ∈ {75,
150} ms × 4 seeded trials = 720 trials, run as ``run_campaign(shards=8,
jobs=1)`` into a fresh run directory. It does almost nothing but
scheduler, Binder, fault, engine and aggregation work, which isolates
the trial substrate from suite-only code.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from typing import Dict, List

from common import SETUP_REPEATS, WORK, check, host_sample, import_seconds, \
    median

SHARDS = 8
TRIALS_PER_CELL = 4


def _matrix(seed: int):
    from repro.experiments import QUICK, ScenarioMatrix

    return ScenarioMatrix(
        name="fleet",
        scenario="notification",
        scale=QUICK.with_seed(QUICK.seed + seed),
        versions=("8", "9", "10", "11"),
        configs=({"attacking_window_ms": 75.0},
                 {"attacking_window_ms": 150.0}),
        fault_profiles=("none", "pixel-loaded", "adversarial"),
        trials=TRIALS_PER_CELL,
    )


def setup() -> List[float]:
    return [import_seconds("repro.experiments.campaign")
            for _ in range(SETUP_REPEATS)]


def _campaign(matrix, run_dir, shards: int = SHARDS):
    """One campaign into a fresh run directory; returns (result, wall)."""
    from repro.experiments.campaign import run_campaign

    shutil.rmtree(run_dir, ignore_errors=True)
    start = time.perf_counter()
    result = run_campaign(matrix, shards=shards, jobs=1, run_dir=run_dir)
    wall = time.perf_counter() - start
    check(not result.failures,
          f"campaign failures: {[f.name for f in result.failures]}")
    check(result.trials == len(matrix),
          f"{result.trials} trials folded, matrix has {len(matrix)}")
    return result, wall


def _shard_seconds(matrix, run_dir) -> List[float]:
    """Per-shard walls, read back from the campaign's own journal."""
    from repro.experiments.campaign import CampaignManifest, shard_name

    manifest = CampaignManifest.resume(run_dir, matrix, SHARDS)
    return [manifest.load(shard_name(i)).seconds for i in range(SHARDS)]


def run(seed: int, seconds: float) -> Dict[str, object]:
    setup_s = setup()
    matrix = _matrix(seed)
    run_dir = WORK / "tmp" / "campaign"
    walls: List[float] = []
    shard_s: List[List[float]] = [[] for _ in range(SHARDS)]
    reference = None
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        result, wall = _campaign(matrix, run_dir)
        walls.append(wall)
        host_sample()
        for walls_of_shard, wall_s in zip(shard_s,
                                          _shard_seconds(matrix, run_dir)):
            walls_of_shard.append(wall_s)
        aggregates = result.aggregates_json()
        check(reference in (None, aggregates),
              "aggregates_json changed between repeats")
        reference = aggregates
    trials = len(matrix)
    # Each shard holds the same cells in every repeat; its wall is the
    # median over repeats, so the quantiles compare like with like.
    per_shard_ms = [median(s) * 1000.0 for s in shard_s]
    print(f"campaign-fleet: {len(walls)} campaigns of {trials} trials; "
          f"campaign_trials_per_s {trials / median(walls):.2f}")
    return {
        "setup": setup_s,
        "attempted": trials * len(walls),
        "failed": 0,
        "wall_s": median(walls),
        "rate_per_s": trials / median(walls),
        "p50_ms": median(per_shard_ms),
        "p99_ms": max(per_shard_ms),
        "host_bound": ("setup_s", "wall_s", "rate_per_s", "p50_ms",
                       "p99_ms"),
    }


def aggregates_sha256_48(aggregates_json: str) -> int:
    """The first 48 bits of the aggregates' sha256: exact in a float."""
    return int(hashlib.sha256(aggregates_json.encode()).hexdigest()[:12], 16)


def run_traced(seed: int, tracer_factory) -> Dict[str, object]:
    """An untraced campaign, two traced ones, and a one-shard campaign.

    The traced campaigns must repeat the exact counts, and all four must
    produce identical ``aggregates_json``.
    """
    import layers
    from repro.obs import MetricsRegistry, use_metrics

    matrix = _matrix(seed)
    run_dir = WORK / "tmp" / "campaign"
    plain, untraced = _campaign(matrix, run_dir)
    reference = plain.aggregates_json()

    passes = []
    for index in range(2):
        tracer = tracer_factory()
        registry = MetricsRegistry()
        tracer.operation = f"campaign-{index}"
        with tracer.installed(layers.install), use_metrics(registry):
            result, wall = _campaign(matrix, run_dir)
        check(result.aggregates_json() == reference,
              "traced aggregates_json differs from the untraced one")
        passes.append((tracer, registry, wall))
    counts = [layers.exact_counts(registry) for _, registry, _ in passes]
    check(counts[0] == counts[1],
          f"exact counts differ between traced campaigns: {counts}")
    one_shard, _ = _campaign(matrix, run_dir, shards=1)
    check(one_shard.aggregates_json() == reference,
          "shards=1 aggregates_json differs from shards=8")

    tracer, registry, wall = passes[0]
    out = layers.trial_metrics(tracer, registry)
    out["aggregate.extract_s"] = tracer.total("aggregate.extract")
    out["aggregate.observe_s"] = tracer.total("aggregate.observe")
    out["aggregate.merge_s"] = tracer.total("aggregate.merge")
    out["campaign.overhead_s"] = wall - tracer.total("engine.trial")
    out["campaign.aggregates_sha256_48"] = aggregates_sha256_48(reference)
    out["trace.overhead_frac"] = median([w for _, _, w in passes]) \
        / untraced - 1.0
    print(f"aggregates_json sha256 "
          f"{hashlib.sha256(reference.encode()).hexdigest()}")
    return {"attempted": 4 * len(matrix), "failed": 0, "per_layer": out,
            "tracer": tracer}
