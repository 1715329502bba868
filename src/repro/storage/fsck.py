"""Offline integrity verification of a journaled run directory.

``repro fsck --run-dir DIR`` for both journal flavors (``run.json``
experiment runs and ``campaign.json`` campaigns): parse the manifest,
re-validate every completed-result envelope checksum, parse every
failure record, flag markers outside the journaled plan, and list (or
sweep) crash-orphaned ``*.tmp`` files — all without executing anything,
so a suspect directory can be vetted before ``--resume`` trusts it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union

from .store import DurableStore

__all__ = ["FsckIssue", "FsckReport", "fsck_run_dir", "format_fsck"]


@dataclass(frozen=True)
class FsckIssue:
    """One integrity problem, anchored to a path relative to the root."""

    path: str
    problem: str


@dataclass(frozen=True)
class FsckReport:
    """Everything one :func:`fsck_run_dir` pass established."""

    root: str
    manifest: str
    version: int
    results_checked: int
    failures_checked: int
    issues: Tuple[FsckIssue, ...]
    orphans: Tuple[str, ...]
    swept: int

    @property
    def ok(self) -> bool:
        """Orphans alone do not fail a check — resume sweeps them."""
        return not self.issues


def _load_manifest(root: Path) -> Tuple[str, Dict]:
    from ..experiments.resilience import JournalError

    for name in ("campaign.json", "run.json"):
        path = root / name
        if not path.exists():
            continue
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            raise JournalError(
                f"unreadable manifest {path}: {exc}") from exc
        if not isinstance(manifest, dict):
            raise JournalError(f"manifest {path} is not a JSON object")
        return name, manifest
    raise JournalError(
        f"{root} holds neither campaign.json nor run.json; "
        "not a run directory")


def _expected_names(manifest_name: str,
                    manifest: Dict) -> Optional[Set[str]]:
    """Marker names the journaled plan allows, or ``None`` if unknown."""
    if manifest_name == "campaign.json":
        shards = manifest.get("shards")
        if isinstance(shards, int) and shards > 0:
            return {f"shard-{index:04d}" for index in range(shards)}
        return None
    try:
        from ..experiments import EXPERIMENTS
    except Exception:  # registry unimportable — skip the plan check
        return None
    return {spec.name for spec in EXPERIMENTS}


def fsck_run_dir(root: Union[str, Path], *,
                 sweep: bool = False) -> FsckReport:
    """Verify ``root`` offline; raises ``JournalError`` when the
    directory is not usable as a journal at all (no/bad manifest)."""
    from ..experiments.resilience import JournalError

    root = Path(root)
    if not root.is_dir():
        raise JournalError(f"{root} is not a run directory")
    manifest_name, manifest = _load_manifest(root)
    version_key = ("campaign_version" if manifest_name == "campaign.json"
                   else "cache_version")
    version = manifest.get(version_key)
    if not isinstance(version, int):
        raise JournalError(
            f"{root / manifest_name} carries no usable {version_key}")

    issues = []
    expected = _expected_names(manifest_name, manifest)
    results_dir = root / "results"
    failures_dir = root / "failures"

    results_checked = 0
    # A read-only funnel of its own: fsck's reads never advance the
    # fault-occurrence counters of the surfaces it inspects.
    store = DurableStore("fsck", required=False)
    if results_dir.is_dir():
        for marker in sorted(results_dir.glob("*.pkl")):
            results_checked += 1
            relative = str(marker.relative_to(root))
            if store.read_envelope(marker, version) is None:
                issues.append(FsckIssue(
                    relative, store.last_reject or "unreadable"))
                continue
            if expected is not None and marker.stem not in expected:
                issues.append(FsckIssue(
                    relative, "marker outside the journaled plan"))

    failures_checked = 0
    if failures_dir.is_dir():
        for record in sorted(failures_dir.glob("*.json")):
            failures_checked += 1
            relative = str(record.relative_to(root))
            try:
                parsed = json.loads(record.read_text())
            except (OSError, ValueError) as exc:
                issues.append(FsckIssue(
                    relative, f"bad failure record: {exc}"))
                continue
            if not isinstance(parsed, dict):
                issues.append(FsckIssue(
                    relative, "failure record is not a JSON object"))

    orphans = []
    swept = 0
    for directory in (root, results_dir, failures_dir):
        if not directory.is_dir():
            continue
        for tmp in sorted(directory.glob("*.tmp")):
            orphans.append(str(tmp.relative_to(root)))
            if sweep:
                try:
                    tmp.unlink()
                except OSError:
                    continue
                swept += 1

    return FsckReport(
        root=str(root), manifest=manifest_name, version=int(version),
        results_checked=results_checked, failures_checked=failures_checked,
        issues=tuple(issues), orphans=tuple(orphans), swept=swept)


def format_fsck(report: FsckReport) -> str:
    """Human rendering, one status line last (``clean`` or a count)."""
    bad_results = sum(
        1 for issue in report.issues if issue.path.endswith(".pkl"))
    lines = [
        f"fsck {report.root}",
        f"  manifest : {report.manifest} (v{report.version})",
        f"  results  : {report.results_checked} checked, "
        f"{bad_results} bad",
        f"  failures : {report.failures_checked} record(s)",
        f"  orphans  : {len(report.orphans)} temp file(s)"
        + (f", {report.swept} swept" if report.swept else ""),
    ]
    for issue in report.issues:
        lines.append(f"  PROBLEM {issue.path}: {issue.problem}")
    for orphan in report.orphans:
        lines.append(f"  ORPHAN  {orphan}")
    lines.append(
        "clean" if report.ok else f"{len(report.issues)} problem(s)")
    return "\n".join(lines) + "\n"
