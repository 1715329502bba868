"""End-to-end benchmark of the reproduction: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-quick --seed 0 --seconds 30
    python3 perfbench/run.py --workload serve-zipf --trace 1
    python3 perfbench/run.py --workload campaign-fleet --steady 5

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a failed
correctness check prints ``"correct": false`` and exits 1.
``--steady N`` runs the workload N times with consecutive seeds and
prints each end-to-end metric's median, quartiles and spread next to the
bound ``BENCHMARK.json`` fixes for it.

See ``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from common import ROOT, SRC, WORK, CheckFailed, host_factor, host_samples, \
    median, metric, peak_rss_mb, reap_children
from tracer import Tracer

WORKLOADS = {
    "suite-quick": "wl_suite",
    "campaign-fleet": "wl_campaign",
    "serve-zipf": "wl_serve",
}
#: Host-bound metrics that are rates; the others are times.
PER_SECOND = {"rate_per_s"}


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="run N seeds and report each metric's spread")
    return parser.parse_args(argv)


def measure(args, spec) -> int:
    module = __import__(WORKLOADS[args.workload])
    seconds = args.seconds if args.seconds is not None \
        else float(spec["run_seconds"])
    try:
        if args.trace:
            result = module.run_traced(args.seed, Tracer)
        else:
            result = module.run(args.seed, seconds)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    # Before peak_rss_mb reads the children's peak.
    reap_children()

    if args.trace:
        tracer = result["tracer"]
        tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        values = result["per_layer"]
        wanted = spec["per_layer"]
        unknown = set(values) - {m["name"] for m in wanted}
        if unknown:
            raise RuntimeError(f"per-layer metrics not in BENCHMARK.json: "
                               f"{sorted(unknown)}")
        unused = [m["name"] for m in wanted if m["name"] not in values]
        if unused:
            print(f"not exercised by {args.workload} (reported as 0): "
                  + ", ".join(unused))
        for name in sorted(values):
            print(f"  {name} = {values[name]}")
    else:
        attempted = result["attempted"]
        values = {key: result[key] for key in
                  ("wall_s", "rate_per_s", "p50_ms", "p99_ms")}
        values["ok_frac"] = result.get("ok", attempted - result["failed"]) \
            / attempted
        values["setup_s"] = median(result["setup"])
        # Host-bound times are reported at the nominal host speed.
        factor = host_factor()
        print(f"host: {host_samples()} reference passes, factor "
              f"{factor:.4f}; as measured: " + ", ".join(
                  f"{name} {values[name]:.5g}"
                  for name in result["host_bound"]))
        for name in result["host_bound"]:
            values[name] = values[name] / factor \
                if name in PER_SECOND else values[name] * factor
        values["peak_rss_mb"] = peak_rss_mb()
        wanted = spec["end_to_end"]
        missing = {m["name"] for m in wanted} ^ set(values)
        if missing:
            raise RuntimeError(
                f"metrics and BENCHMARK.json disagree: {missing}")
    metrics = {m["name"]: metric(values.get(m["name"], 0.0), m["unit"])
               for m in wanted}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def steady(args, spec) -> int:
    """Run ``args.steady`` seeds in fresh processes; report the spreads."""
    runs = []
    for seed in range(args.seed, args.seed + args.steady):
        command = [sys.executable, str(Path(__file__)), "--workload",
                   args.workload, "--seed", str(seed), "--trace", "0"]
        if args.seconds is not None:
            command += ["--seconds", str(args.seconds)]
        out = subprocess.run(command, cwd=ROOT, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        runs.append(json.loads(out.strip().splitlines()[-1]))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    flagged = []
    print(f"{'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>8}")
    for entry in spec["end_to_end"]:
        values = [run["metrics"][entry["name"]]["value"] for run in runs]
        q1, mid, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else (values[0],) * 3
        spread = (q3 - q1) / mid if mid else 0.0
        over = spread > entry["bound"]
        if over:
            flagged.append(entry["name"])
        print(f"{entry['name']:<14}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}"
              f"{spread:>9.3f}{entry['bound']:>8.3f}"
              f"{'  OVER BOUND' if over else ''}")
    if flagged:
        print("unsteady: " + ", ".join(flagged))
        return 1
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = _spec()
    if args.steady:
        return steady(args, spec)

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    tmp = WORK / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    # Keep every temporary file (pool semaphores aside) inside the checkout.
    os.environ["TMPDIR"] = str(tmp)
    try:
        return measure(args, spec)
    finally:
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
