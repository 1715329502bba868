"""Helpers shared by the benchmark workloads: paths, statistics, set-up
timing, host-speed normalisation and memory accounting."""

from __future__ import annotations

import gc
import heapq
import multiprocessing
import os
import resource
import signal
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path
from statistics import median
from typing import Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for result caches, run journals and span dumps. It lives
#: inside the checkout so the benchmark never writes outside it.
WORK = ROOT / ".perfbench_work"

#: How many times set-up is repeated per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Nominal duration of one host-speed reference pass. Every host-bound
#: time is reported as it would read on a host that runs the reference
#: in exactly this long; see ``host_factor``.
REFERENCE_S = 0.2


class CheckFailed(Exception):
    """A correctness check on the program's output failed."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(min(rank, len(ordered))) - 1]


def import_seconds(module: str) -> float:
    """Wall time for a fresh interpreter to import ``module``.

    Every user of the program pays this once per process, so it is part
    of each workload's set-up time.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", f"import {module}"], env=env,
                   check=True, cwd=ROOT)
    seconds = time.perf_counter() - start
    host_sample()
    return seconds


class _Event:
    __slots__ = ("due", "seq", "kind", "payload")

    def __init__(self, due: float, seq: int, kind: int, payload: dict):
        self.due, self.seq, self.kind, self.payload = due, seq, kind, payload

    def __lt__(self, other: "_Event") -> bool:
        return (self.due, self.seq) < (other.due, other.seq)


def _reference(steps: int = 60_000) -> Dict[str, int]:
    """A fixed pure-Python event loop shaped like the simulator's: a heap
    of slotted events, dict payloads, counters keyed by formatted
    strings. It never touches the program, so no change to the program
    changes its speed."""
    queue: List[_Event] = []
    counts: Dict[str, int] = {}
    state = 12345
    for seq in range(64):
        heapq.heappush(queue, _Event(float(seq), seq, seq % 7, {"n": seq}))
    for seq in range(64, 64 + steps):
        event = heapq.heappop(queue)
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = f"k{event.kind}"
        counts[key] = counts.get(key, 0) + event.payload["n"] % 3
        heapq.heappush(queue, _Event(event.due + (state % 1000) / 100.0, seq,
                                     state % 7, {"n": state & 255}))
    return counts


#: Durations of this run's reference passes.
_HOST_SAMPLES: List[float] = []


def host_sample(passes: int = 1) -> None:
    """Time ``passes`` reference passes, between the run's measurements.

    On a VM of a few shared vCPUs the speed of the same code can drift
    by 1.6x over seconds to minutes (measured on a 2-vCPU Linux VM).
    Sampling the reference throughout a run measures the speed the
    run's work got.
    """
    enabled = gc.isenabled()
    gc.disable()  # keep the program's heap out of the reference's time
    try:
        for _ in range(passes):
            start = time.perf_counter()
            _reference()
            _HOST_SAMPLES.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


def host_factor() -> float:
    """``REFERENCE_S`` over the run's median reference pass.

    A host-bound time times this factor is the time at the nominal host
    speed; a rate is divided by it.
    """
    return REFERENCE_S / median(_HOST_SAMPLES)


def host_samples() -> int:
    return len(_HOST_SAMPLES)


def reap_children(timeout: float = 30.0) -> None:
    """Wait for every process this run started to end.

    The program's pools shut down without waiting (and the service
    terminates its worker), so their processes may still be exiting.
    The service's spawn pool also starts multiprocessing's resource
    tracker, which is no pool worker and would otherwise outlive this
    process. Joining them all here keeps the run from leaving processes
    behind and lets their peak RSS count towards ``peak_rss_mb``.
    """
    for process in multiprocessing.active_children():
        process.join(timeout)
        if process.is_alive():
            process.kill()
            process.join()
    gc.collect()  # release pool semaphores before their tracker stops
    resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + timeout
    for pid in _child_pids():
        try:
            while os.waitpid(pid, os.WNOHANG) == (0, 0):
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                    break
                time.sleep(0.01)
        except ChildProcessError:
            pass  # already reaped since it was listed


def _child_pids() -> List[int]:
    """Processes whose parent is this one, read from ``/proc``."""
    own = os.getpid()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # ended while being listed
        # The command name may hold spaces; the fields after it do not.
        if int(stat.rsplit(")", 1)[1].split()[1]) == own:
            pids.append(int(entry.name))
    return pids


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child.

    ``ru_maxrss`` is in KiB on Linux. Children only count once they have
    been reaped, which every pool and subprocess here is before this is
    read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
