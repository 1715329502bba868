"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the program from outside: the
program's source is not touched, and nothing here runs in a timed
(untraced) run. Each wrapped call opens a frame on a stack; on return the
frame's duration is added to its parent's child time, so a layer's *self
time* is its duration minus the time its wrapped children took.

Calls to coarse boundaries (an experiment, a trial, a shard, a request,
a storage write) are kept in memory as spans
``(name, start, end, parent, operation id)`` and written once at the end.
Per-event boundaries (scheduler step, Binder transact, fault
perturbation, ...) run millions of times in a suite pass, so for them
only the call count, total and self time are accumulated.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[str, float, float, Optional[str], Any]


class Totals:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: Optional[List[float]] = [] if keep_durations else None


class Tracer:
    """In-memory span and self-time recorder (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.totals: Dict[str, Totals] = {}
        #: Open frames: ``[name, child_seconds]``.
        self._stack: List[list] = []
        #: Operation id stamped on recorded spans (request or pass index).
        self.operation: Any = None
        self._patches: List[Tuple[Any, str, Any]] = []
        self._wrappers: Dict[int, Callable] = {}

    # ------------------------------------------------------------------
    def _totals(self, name: str, keep_durations: bool) -> Totals:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = Totals(keep_durations)
        return entry

    def wrap(self, fn: Callable, name: str, *, record: bool = True,
             keep_durations: bool = False,
             operation: Optional[Callable[..., Any]] = None) -> Callable:
        """Return ``fn`` wrapped in a span named ``name``.

        ``record=False`` accumulates totals only (hot per-event calls);
        ``keep_durations`` also keeps every duration for percentiles;
        ``operation`` maps the call's arguments to the operation id
        stamped on this span and every span recorded inside it.
        """
        stack = self._stack
        spans = self.spans
        totals = self._totals(name, keep_durations)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if operation is not None:
                self.operation = operation(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                totals.calls += 1
                totals.total += duration
                totals.self_time += duration - frame[1]
                if totals.durations is not None:
                    totals.durations.append(duration)
                if record:
                    spans.append((name, start, end,
                                  stack[-1][0] if stack else None,
                                  self.operation))

        traced.__wrapped__ = fn
        return traced

    def add_span(self, name: str, start: float, end: float,
                 parent: Optional[str] = None) -> None:
        """Record a span measured by the caller (e.g. across an ``await``,
        where the frame stack cannot follow)."""
        totals = self._totals(name, True)
        totals.calls += 1
        totals.total += end - start
        totals.self_time += end - start
        totals.durations.append(end - start)
        self.spans.append((name, start, end, parent, self.operation))

    def patch(self, owner: Any, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`restore`.

        A function imported by name into another module is a second
        binding: patch it too, and both bindings share one wrapper, so a
        call is recorded once whichever binding the caller used.
        """
        original = getattr(owner, attr)
        wrapper = self._wrappers.get(id(original))
        if wrapper is None:
            wrapper = self.wrap(original, name, **options)
            self._wrappers[id(original)] = wrapper
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._wrappers.clear()

    @contextmanager
    def installed(self, installer: Callable[["Tracer"], None]
                  ) -> Iterator["Tracer"]:
        """Apply ``installer``'s patches for the extent of the block."""
        installer(self)
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    def calls(self, name: str) -> int:
        entry = self.totals.get(name)
        return entry.calls if entry is not None else 0

    def total(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry.total if entry is not None else 0.0

    def self_time(self, name: str) -> float:
        entry = self.totals.get(name)
        return entry.self_time if entry is not None else 0.0

    def durations(self, name: str) -> List[float]:
        entry = self.totals.get(name)
        if entry is None or entry.durations is None:
            return []
        return entry.durations

    def dump(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, operation in self.spans:
                out.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": operation}) + "\n")
