"""Deterministic fault injection for the scenario runner.

A :class:`FaultPlan` is a seeded, declarative description of the failures a
run should suffer: worker crashes, hangs, transient exceptions, slow jobs
and corrupt-on-write records.  Every injection decision is a pure function
of ``(plan seed, fault index, job_id, attempt)`` — no wall clock, no global
counters — so the same plan injects the *same* faults into the same jobs on
every machine, in any execution order, serially or across a process pool.
That is what makes the retry/timeout/quarantine paths of the
:class:`~repro.api.runner.Runner` testable as ordinary CI regressions: the
chaos gate runs a scenario under a plan with ~20 % injected crashes and
asserts the final store is bit-identical to a fault-free run.

The five fault kinds and where they strike:

========== ==================================================================
kind       effect
========== ==================================================================
crash      pool worker: ``os._exit`` (a lost worker, as after an OOM kill);
           in-process runs raise :class:`InjectedCrashError` instead so
           the serial path stays testable
hang       ``time.sleep(seconds)`` before the job body — with a
           ``job_timeout`` the worker is detected as lost and killed, without
           one the job is merely late
transient  raise :class:`InjectedTransientError` (classified transient, so
           a retry budget absorbs it)
slow       ``time.sleep(seconds)``, then run the job normally
corrupt    the job *succeeds* but its store record is truncated mid-write
           (the writer believes the write worked; the next resume discards
           and re-executes — the PR 6 recovery path)
========== ==================================================================

Pre-execution faults (everything but ``corrupt``) are injected by
:func:`repro.api.runner.execute_job` before the job body; ``corrupt`` is
applied by the runner's commit step after the record is written.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Dict, Mapping, Optional, Sequence, Tuple

#: The fault kinds a :class:`FaultSpec` may declare.
FAULT_KINDS = ("crash", "hang", "transient", "slow", "corrupt")

#: Exit code of an injected worker crash (distinguishable from a real one).
CRASH_EXIT_CODE = 43


class FaultPlanError(ValueError):
    """Raised for structurally invalid fault-plan descriptions."""


class InjectedTransientError(RuntimeError):
    """A ``transient`` fault: fails the attempt, classified as retryable."""


class InjectedCrashError(RuntimeError):
    """A ``crash`` fault injected into an in-process run.

    Pool workers die for real (``os._exit``); an in-process run cannot,
    so the crash is simulated by this exception — classified transient, like
    the lost-worker failure it stands in for.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault of a :class:`FaultPlan`.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        rate: Injection probability per ``(job, attempt)`` in ``[0, 1]``.
        match: Optional substring filter on the ``job_id``; empty matches
            every job.
        attempts: Optional attempt filter — inject only on the listed
            attempt numbers (0 = first try).  Empty means every attempt;
            ``attempts=(0,)`` makes a fault that a single retry always
            clears, which is how chaos plans guarantee convergence.
        seconds: Sleep duration of ``hang``/``slow`` faults.
    """

    kind: str
    rate: float = 1.0
    match: str = ""
    attempts: Tuple[int, ...] = ()
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}; "
                                 f"known: {', '.join(FAULT_KINDS)}")
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"fault rate must be in [0, 1], "
                                 f"got {self.rate}")
        if self.seconds <= 0:
            raise FaultPlanError(f"fault seconds must be positive, "
                                 f"got {self.seconds}")
        if any(attempt < 0 for attempt in self.attempts):
            raise FaultPlanError("fault attempts must be non-negative")

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (round-trips via :meth:`from_dict`)."""
        data: Dict[str, object] = {"kind": self.kind, "rate": self.rate}
        if self.match:
            data["match"] = self.match
        if self.attempts:
            data["attempts"] = list(self.attempts)
        if self.kind in ("hang", "slow"):
            data["seconds"] = self.seconds
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        """Build from a mapping (unknown fields rejected)."""
        unknown = set(data) - {"kind", "rate", "match", "attempts", "seconds"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault field(s): {', '.join(sorted(unknown))}")
        if "kind" not in data:
            raise FaultPlanError("fault needs a 'kind' field")
        return cls(kind=str(data["kind"]),
                   rate=float(data.get("rate", 1.0)),
                   match=str(data.get("match", "")),
                   attempts=tuple(int(a) for a in data.get("attempts", ())),
                   seconds=float(data.get("seconds", 30.0)))


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of faults to inject into a run.

    Injection decisions are deterministic: fault ``i`` strikes job ``j`` on
    attempt ``a`` iff ``Random(crc32(seed/i/j/a)).random() < rate`` — the
    same everywhere, independent of execution order or process boundaries.
    Specs are consulted in declaration order and the first hit wins, so a
    plan can layer a rare crash over a common slow-down.

    Attributes:
        seed: Seed mixed into every injection decision.
        faults: The declared :class:`FaultSpec` entries.
    """

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def draw(self, job_id: str, attempt: int) -> Optional[FaultSpec]:
        """The fault injected into ``(job_id, attempt)``, if any.

        Pure and deterministic — safe to call from any process, any number
        of times, with identical results.
        """
        for index, spec in enumerate(self.faults):
            if spec.match and spec.match not in job_id:
                continue
            if spec.attempts and attempt not in spec.attempts:
                continue
            token = f"{self.seed}/{index}/{spec.kind}/{job_id}/{attempt}"
            rng = Random(zlib.crc32(token.encode()) & 0x7FFFFFFF)
            if rng.random() < spec.rate:
                return spec
        return None

    def apply(self, job_id: str, attempt: int,
              in_worker: bool = False) -> None:
        """Inject the drawn pre-execution fault, if any.

        Called by :func:`repro.api.runner.execute_job` before the job body.
        ``corrupt`` faults are commit-side and do nothing here (see
        :meth:`corrupts`).

        Args:
            job_id: The job about to execute.
            attempt: Zero-based attempt number of this execution.
            in_worker: True inside a pool worker process, where a ``crash``
                fault may genuinely kill the process; in-process execution
                raises :class:`InjectedCrashError` instead.

        Raises:
            InjectedTransientError: for a ``transient`` fault.
            InjectedCrashError: for a ``crash`` fault outside a pool worker.
        """
        spec = self.draw(job_id, attempt)
        if spec is None:
            return
        if spec.kind == "transient":
            raise InjectedTransientError(
                f"injected transient fault for job {job_id!r} "
                f"(attempt {attempt})")
        if spec.kind == "crash":
            if in_worker:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedCrashError(
                f"injected worker crash for job {job_id!r} "
                f"(attempt {attempt}); simulated in-process")
        if spec.kind in ("hang", "slow"):
            time.sleep(spec.seconds)

    def corrupts(self, job_id: str, attempt: int) -> bool:
        """True when a ``corrupt`` fault strikes ``(job_id, attempt)``.

        Consulted by the runner *after* the record file is written; the
        record on disk is then truncated as if the writing process had been
        killed mid-write.
        """
        spec = self.draw(job_id, attempt)
        return spec is not None and spec.kind == "corrupt"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (round-trips via :meth:`from_dict`)."""
        return {"seed": self.seed,
                "faults": [spec.to_dict() for spec in self.faults]}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        """Build a plan from its dict form.

        Raises:
            FaultPlanError: for unknown fields or invalid fault entries.
        """
        unknown = set(data) - {"seed", "faults"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault-plan field(s): {', '.join(sorted(unknown))}")
        faults: Sequence = data.get("faults", ())
        return cls(seed=int(data.get("seed", 0)),
                   faults=tuple(FaultSpec.from_dict(item) for item in faults))

    @classmethod
    def from_file(cls, path: Path) -> "FaultPlan":
        """Load a plan from a JSON file (the ``cli run --fault-plan`` form).

        Raises:
            FaultPlanError: when the file is missing, not JSON, or invalid.
        """
        path = Path(path)
        if not path.exists():
            raise FaultPlanError(f"fault-plan file {path} does not exist")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"invalid fault-plan JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FaultPlanError("fault-plan JSON must be an object")
        return cls.from_dict(data)


def corrupt_record_file(path: Path) -> None:
    """Truncate a just-written record file as a kill-mid-write would.

    The file keeps a valid-looking prefix but is no longer parseable JSON,
    which is exactly what the resume path's corrupt-record discard handles.
    """
    path = Path(path)
    text = path.read_text()
    path.write_text(text[: max(1, len(text) // 2)].rstrip("}\n \t") or "{")
