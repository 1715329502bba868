"""Durable storage: one fault-injectable funnel for every on-disk surface.

The storage boundary is one of the two cross-layer seams the robustness
pass hardens (the other is the network edge in :mod:`repro.serve`).
:class:`DurableStore` is the write/read funnel all five persistent
surfaces route through, and the home of the checksummed result envelope
(:func:`encode_envelope` / :func:`decode_envelope`) they persist in —
:meth:`DurableStore.read_envelope` is the one place a corrupt, truncated
or stale envelope is rejected and counted
(``cache_integrity_rejects_total``); :mod:`repro.storage.faults` injects
deterministic ENOSPC/EIO/torn/rename/crash faults into it, either via
``REPRO_CHAOS`` ``fs:`` entries or a seeded :class:`FsFaultPlan`; and
:func:`fsck_run_dir` verifies a journaled run directory offline
(``repro fsck``).
"""

from .faults import (
    CHAOS_ENV,
    FS_MODES,
    FS_READ_MODES,
    FsChaosError,
    FsFaultEntry,
    FsFaultPlan,
    InjectedFsError,
    SimulatedCrash,
    chaos_spec_text,
    current_fs_plan,
    fault_for,
    fs_chaos,
    parse_fs_entries,
    reset_fs_fault_counters,
    use_fs_plan,
)
from .fsck import FsckIssue, FsckReport, format_fsck, fsck_run_dir
from .store import (
    CACHE_REJECTS_METRIC,
    ENVELOPE_MAGIC,
    FS_FAULTS_METRIC,
    FS_WRITE_ERRORS_METRIC,
    CacheIntegrityError,
    DurableStore,
    atomic_write_bytes,
    decode_envelope,
    encode_envelope,
    fsync_default,
)

__all__ = [
    "CACHE_REJECTS_METRIC",
    "CHAOS_ENV",
    "CacheIntegrityError",
    "DurableStore",
    "ENVELOPE_MAGIC",
    "FS_FAULTS_METRIC",
    "FS_MODES",
    "FS_READ_MODES",
    "FS_WRITE_ERRORS_METRIC",
    "FsChaosError",
    "FsFaultEntry",
    "FsFaultPlan",
    "FsckIssue",
    "FsckReport",
    "InjectedFsError",
    "SimulatedCrash",
    "atomic_write_bytes",
    "chaos_spec_text",
    "current_fs_plan",
    "decode_envelope",
    "encode_envelope",
    "fault_for",
    "format_fsck",
    "fs_chaos",
    "fsck_run_dir",
    "fsync_default",
    "parse_fs_entries",
    "reset_fs_fault_counters",
    "use_fs_plan",
]
