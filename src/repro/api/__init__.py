"""repro.api — the stable public facade of the evaluation pipeline.

This package is the one import surface a workload author needs:

* **Registries** (:mod:`repro.api.registry`) — ``@register_locker``,
  ``@register_attack`` and ``@register_metric`` decorators plus the
  ``make_locker``/``make_attack``/``make_metric`` lookups, so third-party
  and experimental algorithms plug into the pipeline without touching
  ``eval/``.
* **Scenarios** (:mod:`repro.api.scenario`) — the declarative
  :class:`Scenario` dataclass tree (benchmarks × lockers × attacks ×
  metrics × samples) with validated JSON round-trips, **matrix axes**
  (``seeds`` / ``key_budget_fractions`` / ``time_budgets`` sweeps) and
  deterministic expansion into :class:`JobSpec` jobs.
* **Runner** (:mod:`repro.api.runner`) — decides which jobs of a scenario
  run (:meth:`Runner.plan`) and executes them in-process (``jobs=1``) or on
  a process pool (``jobs > 1``), with ``progress`` callbacks and
  bit-identical results either way.
* **Executors** (:mod:`repro.api.backends`) — :class:`SerialBackend` (runs
  jobs in expansion order) and :class:`ProcessPoolBackend` (owns its
  dispatch order), plus the fault-tolerance primitives: per-job
  :class:`RetryPolicy` with seeded backoff, wall-clock ``job_timeout``
  enforcement with lost-worker detection, and transient-vs-permanent
  failure classification feeding the store's ``failures.jsonl``
  quarantine ledger.
* **Fault injection** (:mod:`repro.api.faults`) — a deterministic, seeded
  :class:`FaultPlan` (crashes, hangs, transient errors, slow jobs, corrupt
  writes) that turns every recovery path above into an ordinary CI
  regression test.
* **Scenario service** (:mod:`repro.api.server` / :mod:`repro.api.client` /
  :mod:`repro.api.protocol`) — a persistent job daemon (``cli serve``):
  clients submit scenarios over a newline-delimited-JSON socket, all runs
  share one warm plan cache, progress streams back live (``watch``), and
  resubmitted scenarios dedup by fingerprint into the existing store.  The
  protocol layer is a typed ``Request``/``Response``/``Event`` envelope
  with canonical error codes.
* **Results store** (:mod:`repro.api.store`) — one JSON record per job plus
  an aggregate manifest with each job's measured wall time; re-runs
  against an existing store skip completed jobs, and the figure/table
  builders — including ``repro-lock report`` — read from it without
  re-simulating.

The Fig. 6 evaluation has no separate pipeline: ``repro-lock evaluate``
builds a one-attack :class:`Scenario` from its flags and runs it here, and
its tables come from :func:`repro.eval.report_from_samples` over the
:class:`RunReport` records.

Minimal usage::

    from repro.api import Runner, ResultsStore, Scenario

    scenario = Scenario.from_file("scenario.json")
    report = Runner(scenario, store=ResultsStore("runs/demo"), jobs=2).run()
    print(f"{report.executed} of {report.total} job(s) executed")

The registry decorators are importable *before* the heavyweight pipeline
modules load (``from repro.api import register_locker`` pulls in no
simulation or ML code), which is what lets the built-in lockers, attacks and
metrics self-register at class-definition time without import cycles.
"""

from __future__ import annotations

from .registry import (
    ATTACKS,
    LOCKERS,
    METRICS,
    Registry,
    UnknownComponentError,
    attack_names,
    locker_names,
    make_attack,
    make_locker,
    make_metric,
    metric_names,
    register_attack,
    register_locker,
    register_metric,
)

__all__ = [
    "ATTACKS",
    "LOCKERS",
    "METRICS",
    "Registry",
    "UnknownComponentError",
    "attack_names",
    "locker_names",
    "make_attack",
    "make_locker",
    "make_metric",
    "metric_names",
    "register_attack",
    "register_locker",
    "register_metric",
    # Lazily resolved (see __getattr__):
    "AttackSpec",
    "JobSpec",
    "LockerSpec",
    "MetricSpec",
    "Scenario",
    "ScenarioError",
    "Runner",
    "RunPlan",
    "RunReport",
    "execute_job",
    "ResultsStore",
    "StoreError",
    "SerialBackend",
    "ProcessPoolBackend",
    "RetryPolicy",
    "JobOutcome",
    "TransientJobError",
    "classify_failure",
    "FaultPlan",
    "FaultSpec",
    "FaultPlanError",
    "InjectedTransientError",
    "InjectedCrashError",
    "PROTOCOL_VERSION",
    "ERROR_CODES",
    "OPS",
    "ProtocolError",
    "Request",
    "Response",
    "Event",
    "ScenarioServer",
    "ServerJob",
    "JobCancelled",
    "run_server",
    "ScenarioClient",
    "ServerError",
    "parse_address",
]

#: Lazy attribute → defining submodule map (PEP 562).  The scenario/runner/
#: store modules import the component packages, which in turn import this
#: package for the registry decorators — resolving them on first access keeps
#: that cycle open.
_LAZY = {
    "AttackSpec": "scenario",
    "JobSpec": "scenario",
    "LockerSpec": "scenario",
    "MetricSpec": "scenario",
    "Scenario": "scenario",
    "ScenarioError": "scenario",
    "Runner": "runner",
    "RunPlan": "runner",
    "RunReport": "runner",
    "execute_job": "runner",
    "ResultsStore": "store",
    "StoreError": "store",
    "SerialBackend": "backends",
    "ProcessPoolBackend": "backends",
    "RetryPolicy": "backends",
    "JobOutcome": "backends",
    "TransientJobError": "backends",
    "classify_failure": "backends",
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "FaultPlanError": "faults",
    "InjectedTransientError": "faults",
    "InjectedCrashError": "faults",
    "PROTOCOL_VERSION": "protocol",
    "ERROR_CODES": "protocol",
    "OPS": "protocol",
    "ProtocolError": "protocol",
    "Request": "protocol",
    "Response": "protocol",
    "Event": "protocol",
    "ScenarioServer": "server",
    "ServerJob": "server",
    "JobCancelled": "server",
    "run_server": "server",
    "ScenarioClient": "client",
    "ServerError": "client",
    "parse_address": "client",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
