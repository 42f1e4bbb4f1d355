"""Filesystem results store: one JSON record per job plus a manifest.

A :class:`ResultsStore` makes scenario runs *resumable* and their outputs
consumable by downstream tooling without keeping anything in memory:

* ``<root>/jobs/<job_id>.json`` — one record per completed job,
* ``<root>/manifest.json`` — the scenario, its fingerprint, and a summary of
  every job (id, kind, status), rewritten at the end of each run,
* ``<root>/failures.jsonl`` — the append-only *failure ledger*: one JSON
  line per quarantined job (a job whose retry budget was exhausted), so a
  run that degrades gracefully never *silently* drops work — resumes skip
  known-poison jobs, ``repro.cli report`` surfaces them, and raising the
  retry budget re-executes them.

Every file write goes through a temp file + ``os.replace``
(:func:`write_json_atomic`), so a crash at any instant leaves either the
old content or the new one — never a truncated manifest, stamp or record.
Ledger appends are the exception (an append is already all-or-nothing per
line); a line truncated by a crash mid-append is skipped on read.

A second run of the same scenario against an existing store skips every job
whose record is already present (zero jobs executed on a complete store).
:meth:`ResultsStore.snapshot` reads everything a report shows in one pass,
and ``repro.cli report <store>`` renders the full report from it — figures,
per-axis sweep tables, measured wall time — without re-running anything.

The manifest summarises every record with its measured wall time and
carries the expanded ``total_jobs`` count, so a store also answers "is this
run complete?" (:attr:`StoreSnapshot.completion`).
"""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (Collection, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from .scenario import Scenario

#: Manifest schema version (bump on incompatible record changes).
MANIFEST_VERSION = 1

_log = logging.getLogger(__name__)


@contextmanager
def _file_lock(handle):
    """Advisory exclusive ``flock`` over an open file (no-op without fcntl).

    Serialises concurrent appends to the failure ledger across processes;
    advisory locking is enough because every writer goes through
    :meth:`ResultsStore.append_failure`.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX platforms
        yield
        return
    fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
    try:
        yield
    finally:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


def write_json_atomic(path: Path, payload: object) -> Path:
    """Write ``payload`` as JSON via a temp file + atomic ``os.replace``.

    The single write primitive behind records, the manifest and the
    scenario stamp: a crash before the rename leaves the old file intact
    (plus a ``*.tmp`` leftover that :meth:`ResultsStore.sweep_temp_files`
    removes), a crash after it leaves the complete new file — a truncated
    JSON file is impossible either way.
    """
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2) + "\n")
    tmp.replace(path)
    return path


def kpa_samples_from_records(records: Iterable[Mapping]) -> List:
    """Flatten attack job records into ``KpaSample`` objects.

    The single aggregation path shared by the store reports
    (:mod:`repro.eval.reporting`) and
    :meth:`repro.api.runner.RunReport.kpa_samples`, so the record schema is
    interpreted in exactly one place.
    """
    from ..attacks.kpa import KpaSample

    samples: List[KpaSample] = []
    for record in records:
        if record.get("kind") != "attack":
            continue
        result = record["result"]
        metadata = dict(result.get("metadata", {}))
        metadata["attack"] = record.get("attack")
        if result.get("functional_kpa") is not None:
            metadata["functional_kpa"] = result["functional_kpa"]
        samples.append(KpaSample(
            design_name=record["benchmark"],
            algorithm=record["locker"],
            value=float(result["kpa"]),
            key_width=len(result.get("correct_key", [])),
            metadata=metadata,
        ))
    return samples


class StoreError(RuntimeError):
    """Raised for unreadable or inconsistent store contents."""


def latest_failure_per_job(entries: Iterable[Dict]) -> Dict[str, Dict]:
    """``{job_id: latest ledger entry}`` over failure-ledger entries."""
    latest: Dict[str, Dict] = {}
    for entry in entries:
        job_id = entry.get("job_id")
        if isinstance(job_id, str):
            latest[job_id] = entry
    return latest


@dataclass(frozen=True)
class StoreSnapshot:
    """Everything a report shows, read by :meth:`ResultsStore.snapshot`.

    ``scenario`` is the manifest's, else the stamped one; ``records`` are
    the readable records in job-id order, ``unreadable`` the other ids.
    """

    manifest: Optional[Dict]
    scenario: Optional[Scenario]
    records: List[Dict]
    unreadable: List[str]
    failures: List[Dict]
    completion: Optional[Dict]


class ResultsStore:
    """Directory-backed store of per-job records and an aggregate manifest.

    Args:
        root: Store directory (created on first write).
    """

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    @property
    def jobs_dir(self) -> Path:
        """Directory holding one JSON record per completed job."""
        return self.root / "jobs"

    @property
    def manifest_path(self) -> Path:
        """Path of the aggregate manifest."""
        return self.root / "manifest.json"

    @property
    def scenario_stamp_path(self) -> Path:
        """Path of the scenario stamp written at the *start* of every run."""
        return self.root / "scenario.json"

    @property
    def failures_path(self) -> Path:
        """Path of the append-only failure ledger (``failures.jsonl``)."""
        return self.root / "failures.jsonl"

    # ------------------------------------------------------------------ stamp

    def scenario_stamp(self) -> Optional[str]:
        """Fingerprint of the scenario this store belongs to, if stamped."""
        if not self.scenario_stamp_path.exists():
            return None
        try:
            return json.loads(
                self.scenario_stamp_path.read_text())["fingerprint"]
        except (json.JSONDecodeError, KeyError) as exc:
            raise StoreError(
                f"corrupt scenario stamp {self.scenario_stamp_path}: {exc}"
            ) from exc

    def write_scenario_stamp(self, scenario: Scenario) -> Path:
        """Bind this store to ``scenario`` (called before jobs execute).

        Written atomically (:func:`write_json_atomic`): the stamp is
        rewritten at the start of every run (including resumes), and a kill
        mid-write must not corrupt the identity of a store full of valid
        records.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        return write_json_atomic(self.scenario_stamp_path,
                                 {"fingerprint": scenario.fingerprint(),
                                  "scenario": scenario.to_dict()})

    def clear_records(self) -> None:
        """Delete every job record, the manifest and the failure ledger
        (the stamp stays)."""
        if self.jobs_dir.exists():
            for path in self.jobs_dir.glob("*.json"):
                path.unlink()
        if self.manifest_path.exists():
            self.manifest_path.unlink()
        if self.failures_path.exists():
            self.failures_path.unlink()
        self.sweep_temp_files()

    def sweep_temp_files(self) -> int:
        """Delete ``*.tmp`` leftovers of runs killed mid-write.

        Every store write goes through a temp file + atomic rename, so a
        ``.tmp`` file only survives a crash between the two steps; its
        content is at best a duplicate and at worst truncated.  The runner
        sweeps at the start of every run so the leftovers never accumulate.

        Returns:
            The number of files removed.
        """
        removed = 0
        for directory in (self.root, self.jobs_dir):
            if not directory.exists():
                continue
            for pattern in ("*.json.tmp", "*.jsonl.tmp"):
                for path in directory.glob(pattern):
                    path.unlink()
                    removed += 1
        return removed

    # ------------------------------------------------------- failure ledger

    def append_failure(self, entry: Mapping) -> Path:
        """Append one quarantined-job entry to the failure ledger.

        Appends are crash-safe by construction: each entry is one JSON
        line, written and flushed in a single call, so a kill mid-append
        can at worst truncate the final line — which :meth:`failures`
        skips — and never damages earlier entries.

        Appends are also *concurrency-safe*: the write happens under an
        advisory ``flock`` on the ledger file, so multiple runner
        processes sharing one store root (a scenario server's workers, a
        multi-host run) never interleave partial lines.  On platforms
        without ``fcntl`` the lock degrades to the plain append.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(dict(entry)) + "\n"
        with self.failures_path.open("a") as handle:
            with _file_lock(handle):
                handle.write(line)
                handle.flush()
        return self.failures_path

    def failures(self) -> List[Dict]:
        """Every readable entry of the failure ledger, in append order.

        A line truncated by a crash mid-append is logged and skipped — the
        ledger stays readable after any interruption.  Jobs quarantined
        more than once appear once per quarantine; use
        :meth:`failed_job_ids` for the latest entry per job.
        """
        if not self.failures_path.exists():
            return []
        entries: List[Dict] = []
        for number, line in enumerate(
                self.failures_path.read_text().splitlines(), 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                _log.warning("skipping unreadable failure-ledger line %d "
                             "in %s (truncated append?)", number,
                             self.failures_path)
                continue
            if isinstance(entry, dict):
                entries.append(entry)
        return entries

    def failed_job_ids(self) -> Dict[str, Dict]:
        """``{job_id: latest ledger entry}`` of every quarantined job."""
        return latest_failure_per_job(self.failures())

    def compact_failures(self, drop: Collection[str] = ()) -> int:
        """Rewrite the ledger to its latest entry per job, dropping ids.

        Called at the end of every run with the set of jobs that now have
        records: a job that eventually succeeded is no longer poison, and
        keeping its stale entry would wrongly skip it on the next resume.
        The rewrite is atomic; the file is removed entirely when nothing
        remains.

        Args:
            drop: Job ids whose entries are removed (jobs with records).

        Returns:
            The number of ledger entries removed (duplicates included).
        """
        if not self.failures_path.exists():
            return 0
        entries = self.failures()
        keep = [entry for job_id, entry
                in latest_failure_per_job(entries).items()
                if job_id not in drop]
        removed = len(entries) - len(keep)
        if not keep:
            self.failures_path.unlink()
            return removed
        if removed:
            tmp = self.failures_path.with_suffix(".jsonl.tmp")
            tmp.write_text("".join(json.dumps(entry) + "\n"
                                   for entry in keep))
            tmp.replace(self.failures_path)
        return removed

    # ---------------------------------------------------------------- records

    def record_path(self, job_id: str) -> Path:
        """Path of one job's record file."""
        return self.jobs_dir / f"{job_id}.json"

    def has(self, job_id: str) -> bool:
        """True when a record for ``job_id`` exists (the resume check)."""
        return self.record_path(job_id).exists()

    def save(self, job_id: str, record: Mapping) -> Path:
        """Write one job record (atomically, :func:`write_json_atomic`)."""
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        return write_json_atomic(self.record_path(job_id), dict(record))

    def load(self, job_id: str) -> Dict:
        """Read one job record.

        Raises:
            StoreError: when the record is missing or not valid JSON.
        """
        path = self.record_path(job_id)
        if not path.exists():
            raise StoreError(f"no record for job {job_id!r} in {self.root}")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(f"corrupt record {path}: {exc}") from exc

    def discard(self, job_id: str) -> bool:
        """Delete one job record if present (used for unreadable records).

        Returns:
            True when a record file was removed.
        """
        path = self.record_path(job_id)
        if not path.exists():
            return False
        path.unlink()
        return True

    def job_ids(self) -> List[str]:
        """Sorted ids of every stored job record.

        Only ``*.json`` files count: ``*.json.tmp`` leftovers of a killed
        run are never records (see :meth:`sweep_temp_files`).
        """
        if not self.jobs_dir.exists():
            return []
        return sorted(path.stem for path in self.jobs_dir.glob("*.json")
                      if path.suffix == ".json")

    def records(self) -> Iterator[Dict]:
        """Iterate over every stored record (sorted by job id)."""
        for job_id in self.job_ids():
            yield self.load(job_id)

    def _read_records(self, held: Optional[Mapping[str, Mapping]] = None
                      ) -> Tuple[Dict[str, Dict], List[str]]:
        """``({job_id: record}, unreadable ids)``, each record loaded once.

        Records in ``held`` (the caller's copies of records on disk) are
        taken from it instead of being read again.  An unreadable record
        (kill mid-write, bad sector) is logged and skipped; a resume
        re-executes it.
        """
        records: Dict[str, Dict] = {}
        unreadable: List[str] = []
        held = held or {}
        for job_id in self.job_ids():
            if job_id in held:
                records[job_id] = held[job_id]
                continue
            try:
                records[job_id] = self.load(job_id)
            except StoreError:
                _log.warning("skipping unreadable record %r in %s",
                             job_id, self.root)
                unreadable.append(job_id)
        return records, unreadable

    # --------------------------------------------------------------- manifest

    def write_manifest(self, scenario: Scenario, executed: int, skipped: int,
                       held: Mapping[str, Mapping]) -> Path:
        """Write the aggregate manifest for a (finished or interrupted) run.

        Each job summary carries the measured ``elapsed_seconds`` of its
        record (``repro.cli report`` renders them per benchmark × locker).
        ``total_jobs`` is the expanded size of the scenario; a store with
        fewer records than that is a *partial* run (interrupted or still
        filling).  ``held`` maps job ids to the run's copies of their
        records on disk; only the other records on disk are read.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        expanded = {job.job_id for job in scenario.expand()}
        # A record corrupted on disk is the resume path's problem; the
        # manifest still summarises every readable one.
        summaries = [{
            "job_id": job_id,
            "kind": record.get("kind"),
            "benchmark": record.get("benchmark"),
            "locker": record.get("locker"),
            "sample": record.get("sample"),
            "elapsed_seconds": record.get("elapsed_seconds"),
        } for job_id, record in self._read_records(held)[0].items()]
        quarantined = sorted(job_id for job_id in self.failed_job_ids()
                             if job_id in expanded)
        manifest = {
            "version": MANIFEST_VERSION,
            "scenario": scenario.to_dict(),
            "scenario_fingerprint": scenario.fingerprint(),
            "executed": executed,
            "skipped": skipped,
            "total_jobs": len(expanded),
            "total_records": len(summaries),
            "jobs": summaries,
        }
        if quarantined:
            manifest["quarantined_jobs"] = quarantined
        # Atomic like save(): the manifest is (re)written from the runner's
        # finally block, where a second interrupt must not leave a truncated
        # file behind.
        return write_json_atomic(self.manifest_path, manifest)

    def manifest(self) -> Dict:
        """Read the manifest.

        Raises:
            StoreError: when no manifest has been written yet, or the file
                is not valid JSON (e.g. a truncated write).
        """
        if not self.manifest_path.exists():
            raise StoreError(f"no manifest in {self.root}")
        try:
            return json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise StoreError(
                f"corrupt manifest {self.manifest_path}: {exc}") from exc

    def stamped_scenario(self) -> Optional[Scenario]:
        """The scenario from the *stamp* file, or ``None`` if never stamped.

        The stamp is written before any job executes, so it exists even for
        interrupted runs that never reached the manifest — the fallback
        ``repro.cli report`` uses to describe a partial store.  The scenario
        is not registry-validated: a store must stay reportable even when
        the components that produced it are not importable here.
        """
        if not self.scenario_stamp_path.exists():
            return None
        try:
            data = json.loads(self.scenario_stamp_path.read_text())
            return Scenario.from_dict(data["scenario"], validate=False)
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise StoreError(
                f"corrupt scenario stamp {self.scenario_stamp_path}: {exc}"
            ) from exc

    def snapshot(self) -> StoreSnapshot:
        """Read everything a report shows, each file at most once.

        The stamp is read only when the manifest is missing, corrupt or
        lacks ``total_jobs``; a corrupt one degrades like a missing one.
        :attr:`StoreSnapshot.completion` counts an unreadable record as
        outstanding, as :meth:`repro.api.Runner.plan` re-executes it.
        """
        try:
            manifest: Optional[Dict] = self.manifest()
        except StoreError:
            manifest = None
        total = manifest.get("total_jobs") if manifest is not None else None
        stamped = None
        if total is None:
            try:
                stamped = self.stamped_scenario()
            except StoreError:
                pass  # corrupt stamp: treat like a missing one
            if stamped is not None:
                total = len(stamped.expand())
        # validate=False: a store must stay reportable even when the
        # components that produced it are not registered here.
        scenario = (Scenario.from_dict(manifest["scenario"], validate=False)
                    if manifest is not None else stamped)
        records, unreadable = self._read_records()
        completion = None if total is None else {
            "records": len(records), "total": total,
            "complete": len(records) >= total}
        return StoreSnapshot(manifest=manifest, scenario=scenario,
                             records=list(records.values()),
                             unreadable=unreadable, failures=self.failures(),
                             completion=completion)
