"""``serve-zipf``: open-loop feasibility serving with Zipf-popular queries.

An in-process ``FeasibilityService(workers=1, cache_dir=<fresh dir>)`` is
driven through ``submit()`` from the same event loop: one process plus
one pool worker. A run replays one trace ``TRACES`` times, each on a
fresh service and cache. Arrivals form a Poisson process at a fixed rate
(``RATE_PER_S``, conditioned on the count so every trace spans exactly
its share of the measuring time). Each arrival draws a query
Zipf-popular from every device × {none, mild, pixel-loaded, adversarial}
× {stochastic-human, gui-agent} (240 queries); a few arrivals are bursts
of identical queries not seen before, which single-flight must coalesce.
Latency is timed from each request's due time, so a stall also charges
the requests queued behind it.

This is the only workload through the serve cache, single-flight and
admission, and the only one with storage writes on the latency path.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import shutil
import time
from typing import Dict, List, Optional, Tuple

from common import SETUP_REPEATS, WORK, check, host_sample, import_seconds, \
    median, percentile

#: Arrivals per second: 1,000 requests in a 10-second trace, so p99 has
#: ten samples beyond it. The value is an assumption; see README.md.
RATE_PER_S = 100.0
#: Identical replays of the trace per run, each on a fresh service and
#: cache. The run reports the median of their latency percentiles, so a
#: slowdown of the host during one replay does not set them.
TRACES = 3
#: Zipf exponent of query popularity: an assumption, picked so that
#: first-time queries rarely queue behind each other and p99 measures
#: their execution rather than the queue; see README.md.
ZIPF_S = 1.8
#: Bursts per trace and identical requests per burst.
BURSTS = 4
BURST_SIZE = 3
#: A request answered later than this (from its due time) misses the
#: service-level objective, as does every failed or shed request.
LATENCY_LIMIT_MS = 500.0
FAULTS = ("none", "mild", "pixel-loaded", "adversarial")
USERS = ("stochastic-human", "gui-agent")
#: Fixed popularity order and query sequence: the seed varies only the
#: arrival times, so runs with different seeds serve the same queries and
#: their tail latencies compare.
RANKING_SEED = 20220701
#: The most popular queries answered before the trace starts: the cache
#: is warm, so the first seconds of the trace are not one long backlog.
WARM_QUERIES = 48
#: How long before a due time the generator stops sleeping and spins.
SPIN_S = 0.0015
#: Served reports compared byte-for-byte with ``query_feasibility()``.
VERIFY_SAMPLE = 4
#: Host-speed reference passes before each trace and after the last.
HOST_PASSES = 3


def universe() -> List:
    from repro.devices.registry import DEVICES
    from repro.serve import FeasibilityQuery

    queries = [FeasibilityQuery(device=d.model,
                                android_version=d.android_version.label,
                                faults=faults, user=user)
               for d in DEVICES for faults in FAULTS for user in USERS]
    random.Random(RANKING_SEED).shuffle(queries)
    return queries


def schedule(seed: int, seconds: float,
             queries: List) -> List[Tuple[float, int]]:
    """``(due seconds, query index)`` per request, in due order."""
    rng = random.Random(seed)
    count = int(RATE_PER_S * seconds)
    dues = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(queries))]
    picks = random.Random(RANKING_SEED).choices(
        range(len(queries)), weights=weights, k=count)
    plan = list(zip(dues, picks))
    # Bursts: at evenly spaced arrivals, the least popular query not yet
    # requested arrives BURST_SIZE times at once.
    seen = set()
    bursts = {count * (b + 1) // (BURSTS + 1) for b in range(BURSTS)}
    out: List[Tuple[float, int]] = []
    for position, (due, pick) in enumerate(plan):
        if position in bursts:
            fresh = max(i for i in range(len(queries))
                        if i not in seen and i not in picks[position:])
            seen.add(fresh)
            out += [(due, fresh)] * BURST_SIZE
        seen.add(pick)
        out.append((due, pick))
    return out


def _warm_query():
    """A query outside the trace's universe (its own seed) for set-up."""
    from repro.serve import FeasibilityQuery

    return FeasibilityQuery(device="pixel 2", seed=1)


async def _start_service(cache_dir):
    from repro.serve import FeasibilityService, ServeConfig

    shutil.rmtree(cache_dir, ignore_errors=True)
    service = FeasibilityService(ServeConfig(workers=1, cache_dir=cache_dir))
    await service.start()
    response = await service.submit(_warm_query())
    check(response.ok, "set-up query failed")
    return service


class Record:
    """One request: its due, send and answer times and its outcome."""

    __slots__ = ("due", "sent", "started", "done", "response", "error")

    def __init__(self) -> None:
        self.due = self.sent = self.started = self.done = 0.0
        self.response = None
        self.error: Optional[BaseException] = None


async def _drive(service, plan, queries,
                 tracer=None) -> Tuple[List[Record], float]:
    """Send every request at its due time; return records and t0."""
    from repro.serve import ServiceOverloaded

    loop = asyncio.get_running_loop()
    records = [Record() for _ in plan]

    async def request(record: Record, query, number: int) -> None:
        if tracer is not None:
            # Correct for the spans opened before submit's first await.
            tracer.operation = number
        record.started = time.perf_counter()
        try:
            record.response = await service.submit(query)
        except ServiceOverloaded as exc:
            record.error = exc
        record.done = time.perf_counter()

    tasks = []
    t0 = time.perf_counter() + 0.05
    for number, (record, (due, index)) in enumerate(zip(records, plan)):
        record.due = t0 + due
        # The loop's timers wake up to a millisecond late; sleep short of
        # the due time and spin the rest so lateness measures the system.
        # sleep(0) releases the GIL, so the pool's result thread is not
        # starved while the generator spins.
        delay = record.due - time.perf_counter() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        while time.perf_counter() < record.due:
            time.sleep(0)
        record.sent = time.perf_counter()
        tasks.append(loop.create_task(
            request(record, queries[index], number)))
    await asyncio.gather(*tasks)
    return records, t0


def _verify(records, plan, queries, seed: int) -> None:
    """Every response ok; every burst coalesced onto one execution; a
    seeded sample byte-equal to the facade."""
    from repro.api import query_feasibility

    bad = [r for r in records if r.error is not None or not r.response.ok]
    check(not bad, f"{len(bad)} of {len(records)} requests not answered ok")
    # A burst is BURST_SIZE identical (due, query) entries in a row. They
    # are submitted back to back while the first is queued, so the first
    # executes and the rest must join it.
    bursts = [position for position in range(len(plan) - BURST_SIZE + 1)
              if len(set(plan[position:position + BURST_SIZE])) == 1]
    check(len(bursts) == BURSTS, f"{len(bursts)} bursts, planned {BURSTS}")
    for position in bursts:
        sources = [records[position + k].response.provenance.source
                   for k in range(BURST_SIZE)]
        check(sources == ["executed"] + ["coalesced"] * (BURST_SIZE - 1),
              f"burst at request {position} answered as {sources}")
    served = {}
    for record, (_, index) in zip(records, plan):
        text = record.response.report.aggregates_json()
        check(served.setdefault(index, text) == text,
              "two answers to one query differ")
    rng = random.Random(seed)
    for index in rng.sample(sorted(served), min(VERIFY_SAMPLE, len(served))):
        direct = query_feasibility(queries[index]).aggregates_json()
        check(direct == served[index],
              "served report differs from query_feasibility()")


async def _session(seed: int, seconds: float, tracer=None):
    """One replay: a fresh service and cache, the warm-up, the trace."""
    queries = universe()
    plan = schedule(seed, seconds, queries)
    start = time.perf_counter()
    service = await _start_service(WORK / "tmp" / "serve-cache")
    start_s = time.perf_counter() - start
    try:
        start = time.perf_counter()
        for query in queries[:WARM_QUERIES]:
            check((await service.submit(query)).ok, "warm-up query failed")
        print(f"serve-zipf: warmed {WARM_QUERIES} queries in "
              f"{time.perf_counter() - start:.3f} s")
        traced = tracer.installed(_install) if tracer is not None \
            else contextlib.nullcontext()
        with traced:
            records, t0 = await _drive(service, plan, queries, tracer)
    finally:
        await service.drain()
        await service.close()
    return queries, plan, start_s, records, t0


def _latencies_ms(records) -> List[float]:
    return [(r.done - r.due) * 1000.0 for r in records]


def run(seed: int, seconds: float) -> Dict[str, object]:
    import_s = [import_seconds("repro.serve") for _ in range(SETUP_REPEATS)]
    start_s: List[float] = []
    p50: List[float] = []
    p99: List[float] = []
    sources: List[str] = []
    sent = ok = 0
    wall = 0.0
    for _ in range(TRACES):
        host_sample(HOST_PASSES)
        queries, plan, started, records, t0 = asyncio.run(
            _session(seed, seconds / TRACES))
        # Any failed or shed request fails the run here, so every request
        # left is answered ok and only the latency limit can miss.
        _verify(records, plan, queries, seed)
        latencies = _latencies_ms(records)
        start_s.append(started)
        p50.append(percentile(latencies, 50))
        p99.append(percentile(latencies, 99))
        sources += [r.response.provenance.source for r in records]
        sent += len(records)
        ok += sum(1 for ms in latencies if ms <= LATENCY_LIMIT_MS)
        wall += max(r.done for r in records) - t0
    host_sample(HOST_PASSES)
    print(f"serve-zipf: {TRACES} replays of {len(records)} requests at "
          f"{RATE_PER_S:g}/s; "
          + ", ".join(f"{source} {sources.count(source) / sent:.3f}"
                      for source in ("cache", "coalesced", "executed"))
          + f"; serve_p50_ms {median(p50):.4f}, serve_p99_ms "
          f"{median(p99):.4f}, serve_slo_frac {ok / sent:.4f}")
    return {
        # Set-up is a fresh interpreter's import plus a service start.
        "setup": [median(import_s) + started for started in start_s],
        "attempted": sent,
        "failed": 0,
        "ok": ok,
        "wall_s": wall,
        "rate_per_s": ok / wall,
        "p50_ms": median(p50),
        "p99_ms": median(p99),
        # wall_s and rate_per_s follow the arrival schedule, not the host.
        "host_bound": ("setup_s", "p50_ms", "p99_ms"),
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

#: Length of each of the traced run's two traces (untraced, traced).
TRACE_SECONDS = 10.0
#: Executed queries replayed in-process to split job wall into pool hop
#: and execution, and to count the trial substrate's work.
REPLAYS = 12


def _install(tracer) -> None:
    """Parent-side boundaries of the request path and the storage funnel."""
    from repro.serve import FeasibilityQuery, QueryCache
    from repro.storage.store import DurableStore

    tracer.patch(FeasibilityQuery, "content_hash", "serve.content_hash",
                 record=False, keep_durations=True)
    tracer.patch(QueryCache, "load", "serve.cache_load", record=False,
                 keep_durations=True)
    tracer.patch(QueryCache, "store", "serve.cache_store",
                 keep_durations=True)
    tracer.patch(DurableStore, "write_bytes", "storage.write",
                 keep_durations=True)


def _replay(queries, tracer_factory):
    """Time executed queries in-process on a warm executor, then run them
    once more traced under exact counters (twice, to check the counts
    repeat)."""
    import layers
    from repro.experiments.engine import TrialExecutor
    from repro.obs import MetricsRegistry, use_metrics
    from repro.serve import execute_query

    warm = TrialExecutor()
    direct_ms = []
    for query in queries:
        execute_query(query, warm)
        start = time.perf_counter()
        execute_query(query, warm)
        direct_ms.append((time.perf_counter() - start) * 1000.0)
    passes = []
    for _ in range(2):
        tracer = tracer_factory()
        registry = MetricsRegistry()
        with tracer.installed(layers.install), use_metrics(registry):
            executor = TrialExecutor()
            for query in queries:
                execute_query(query, executor)
        passes.append((tracer, registry))
    counts = [layers.exact_counts(registry) for _, registry in passes]
    check(counts[0] == counts[1],
          f"exact counts differ between replays: {counts}")
    return direct_ms, layers.trial_metrics(*passes[0])


def run_traced(seed: int, tracer_factory) -> Dict[str, object]:
    _, _, _, plain, _ = asyncio.run(_session(seed, TRACE_SECONDS))
    tracer = tracer_factory()
    queries, plan, _, records, _ = asyncio.run(
        _session(seed, TRACE_SECONDS, tracer))
    _verify(records, plan, queries, seed)

    for number, record in enumerate(records):
        tracer.operation = number
        tracer.add_span("serve.request", record.due, record.done)
        tracer.add_span("serve.submit", record.started, record.done,
                        parent="serve.request")
    sent = len(records)
    by_source: Dict[str, List[Record]] = {}
    for record in records:
        by_source.setdefault(record.response.provenance.source,
                             []).append(record)
    hits = by_source.get("cache", [])
    executed = [(record, queries[index]) for record, (_, index)
                in zip(records, plan)
                if record.response.provenance.source == "executed"]
    provenance = [record.response.provenance for record, _ in executed]
    # Each executed answer is written once, to its content-hash path.
    cache_dir = WORK / "tmp" / "serve-cache"
    stored = sum((cache_dir / f"query-{p.query_hash}.pkl").stat().st_size
                 for p in provenance)
    sample = random.Random(seed).sample(executed,
                                        min(REPLAYS, len(executed)))
    direct_ms, trial = _replay([query for _, query in sample],
                               tracer_factory)
    hops = [record.response.provenance.wall_ms - ms
            for (record, _), ms in zip(sample, direct_ms)]

    def us(name: str) -> float:
        return median(tracer.durations(name)) * 1e6

    out = dict(trial)
    out.update({
        "serve.hit_frac": len(hits) / sent,
        "serve.coalesced_frac": len(by_source.get("coalesced", [])) / sent,
        "serve.executed_frac": len(executed) / sent,
        "serve.shed_frac": sum(1 for r in records if r.error is not None)
        / sent,
        "serve.hit_submit_us": median(
            [(r.done - r.started) * 1e6 for r in hits]),
        "serve.content_hash_us": us("serve.content_hash"),
        "serve.cache_load_us": us("serve.cache_load"),
        "serve.queue_ms_p50": percentile([p.queue_ms for p in provenance], 50),
        "serve.queue_ms_p99": percentile([p.queue_ms for p in provenance], 99),
        "serve.job_wall_ms_p50": percentile(
            [p.wall_ms for p in provenance], 50),
        "serve.pool_hop_ms": median(hops),
        "serve.cache_store_ms": us("serve.cache_store") / 1000.0,
        "storage.writes": tracer.calls("storage.write"),
        "storage.write_ms_p50": us("storage.write") / 1000.0,
        "storage.bytes_written": stored,
        "generator.late_ms_p99": percentile(
            [(r.sent - r.due) * 1000.0 for r in plain], 99),
        "trace.overhead_frac": percentile(_latencies_ms(records), 50)
        / percentile(_latencies_ms(plain), 50) - 1.0,
    })
    return {"attempted": len(plain) + sent, "failed": 0, "per_layer": out,
            "tracer": tracer}
