"""Content-addressed result cache for feasibility queries.

The same checksummed envelope (:mod:`repro.storage`) as the experiment
:class:`~repro.experiments.parallel.ResultCache`, keyed by the query's
content hash instead of ``(name, scale)``. Disk I/O routes through a
``query-cache`` :class:`~repro.storage.store.DurableStore` — the cache
is an optional-durability surface, so an injected or real write failure
degrades to a counted miss (the entry is kept dirty in memory and
retried by :meth:`flush`, which the graceful-drain path calls), and
corrupt, truncated or stale-version bytes degrade to a miss the store
counts once, as ``cache_integrity_rejects_total`` on the service's
registry. A memory layer fronts the disk so a warm hit never re-reads or
re-validates bytes; with no directory configured the cache is
memory-only and dies with the service.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional

from ..storage.store import DurableStore
from .schema import FeasibilityReport

__all__ = ["SERVE_CACHE_VERSION", "QueryCache"]

#: Bump when a change to query execution invalidates previously cached
#: reports (the content hash only sees the query, never the code).
SERVE_CACHE_VERSION = 1


class QueryCache:
    """Envelope-per-key store of :class:`FeasibilityReport` results."""

    def __init__(self, directory: Optional[Path] = None,
                 registry: object = None) -> None:
        self.directory = Path(directory) if directory is not None else None
        self._store = DurableStore("query-cache", required=False,
                                   registry=registry)
        self._memory: Dict[str, FeasibilityReport] = {}
        #: Reports whose disk write failed; flushed on drain.
        self._dirty: Dict[str, FeasibilityReport] = {}

    @property
    def integrity_rejects(self) -> int:
        """Entries rejected by envelope validation since construction."""
        return self._store.integrity_rejects

    def path_for(self, key: str) -> Path:
        if self.directory is None:
            raise ValueError("memory-only cache has no paths")
        return self.directory / f"query-{key}.pkl"

    @property
    def dirty_entries(self) -> int:
        """Reports held only in memory after a failed disk write."""
        return len(self._dirty)

    def load(self, key: str) -> Optional[FeasibilityReport]:
        hit = self._memory.get(key)
        if hit is not None:
            return hit
        if self.directory is None:
            return None
        report = self._store.read_envelope(self.path_for(key),
                                           SERVE_CACHE_VERSION)
        if report is None:
            return None
        self._memory[key] = report
        return report

    def store(self, key: str, report: FeasibilityReport) -> bool:
        """Remember ``report``; ``False`` iff the disk write degraded
        (the report still serves from memory and stays flush-pending)."""
        self._memory[key] = report
        if self.directory is None:
            return True
        if self._store.write_envelope(self.path_for(key),
                                      SERVE_CACHE_VERSION, report):
            self._dirty.pop(key, None)
            return True
        self._dirty[key] = report
        return False

    def flush(self) -> int:
        """Retry every dirty entry's disk write; returns writes landed.

        The graceful-drain path calls this so a transient storage fault
        during serving does not cost the persisted answer at shutdown.
        """
        if self.directory is None:
            self._dirty.clear()
            return 0
        written = 0
        for key in sorted(self._dirty):
            report = self._dirty[key]
            if self._store.write_envelope(self.path_for(key),
                                          SERVE_CACHE_VERSION, report):
                del self._dirty[key]
                written += 1
        return written
