"""Fig. 6 reports: measured KPA tables next to the paper's values."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..attacks.kpa import RANDOM_GUESS_KPA, KpaSample, aggregate_by
from .figures import PAPER_AVERAGE_KPA
from .tables import average_kpa_text, kpa_table_text


@dataclass
class ShapeCheck:
    """One qualitative claim of the paper checked against measured data."""

    claim: str
    holds: bool
    detail: str

    def to_text(self) -> str:
        status = "OK " if self.holds else "FAIL"
        return f"[{status}] {self.claim} — {self.detail}"


def shape_checks(average: Mapping[str, float],
                 per_benchmark: Optional[Mapping[str, Mapping[str, float]]] = None,
                 tolerance: float = 10.0) -> Dict[str, ShapeCheck]:
    """Check the qualitative claims of Fig. 6 against measured KPA values.

    The reproduction is not expected to match absolute numbers (the substrate
    and the auto-ML search differ), but the *shape* must hold:

    * ERA stays near the 50 % random-guess line,
    * ASSURE and HRA sit clearly above the random-guess line,
    * ERA is the most resilient of the three algorithms,
    * the fully balanced ``N_1023`` is near 50 % for every algorithm (when
      present in the per-benchmark table).
    """
    checks: Dict[str, ShapeCheck] = {}

    era = average.get("era")
    assure = average.get("assure")
    hra = average.get("hra")

    if era is not None:
        checks["era_random"] = ShapeCheck(
            claim="ERA average KPA stays near the random-guess line",
            holds=abs(era - RANDOM_GUESS_KPA) <= tolerance,
            detail=f"measured {era:.1f} %, paper {PAPER_AVERAGE_KPA['era']:.1f} %",
        )
    if assure is not None and era is not None:
        checks["assure_above_era"] = ShapeCheck(
            claim="ASSURE leaks clearly more than ERA",
            holds=assure > era + 5.0,
            detail=f"ASSURE {assure:.1f} % vs ERA {era:.1f} %",
        )
    if hra is not None and era is not None:
        # HRA's measured advantage over ERA is smaller here than in the
        # paper (see "Fig. 6 HRA margin" under "Deviations from the paper"
        # in docs/architecture.md); the claim checked is that HRA still
        # leaks.
        checks["hra_above_era"] = ShapeCheck(
            claim="HRA (75 % budget) still leaks more than ERA",
            holds=hra > era + 2.0,
            detail=f"HRA {hra:.1f} % vs ERA {era:.1f} %",
        )
    if assure is not None and hra is not None:
        checks["assure_hra_similar"] = ShapeCheck(
            claim="ASSURE and HRA reach similar KPA under a partial budget",
            holds=abs(assure - hra) <= 2 * tolerance,
            detail=f"ASSURE {assure:.1f} % vs HRA {hra:.1f} %",
        )

    if per_benchmark and "N_1023" in per_benchmark:
        balanced = per_benchmark["N_1023"]
        worst = max(abs(value - RANDOM_GUESS_KPA)
                    for value in balanced.values())
        checks["n1023_balanced"] = ShapeCheck(
            claim="the fully balanced N_1023 is ~50 % KPA for every algorithm",
            holds=worst <= 1.5 * tolerance,
            detail=f"max deviation from 50 %: {worst:.1f} points",
        )
    if per_benchmark and "N_2046" in per_benchmark:
        biased = per_benchmark["N_2046"]
        assure_biased = biased.get("assure")
        if assure_biased is not None:
            checks["n2046_worst_case"] = ShapeCheck(
                claim="the fully imbalanced N_2046 is the ASSURE worst case (~100 %)",
                holds=assure_biased >= 85.0,
                detail=f"measured {assure_biased:.1f} %",
            )
    return checks


def kpa_tables_from_samples(samples: Sequence[KpaSample],
                            ) -> tuple:
    """Build ``(per_benchmark, average)`` KPA tables from flat samples.

    Works on any :class:`~repro.attacks.kpa.KpaSample` list (e.g.
    :meth:`repro.api.RunReport.kpa_samples` or
    :meth:`repro.api.ResultsStore.kpa_samples`); both tables keep the
    samples' first-seen order.
    """
    grouped: Dict[str, Dict[str, List[float]]] = {}
    for sample in samples:
        grouped.setdefault(sample.design_name, {}) \
            .setdefault(sample.algorithm, []).append(sample.value)
    per_benchmark = {
        benchmark: {algorithm: sum(values) / len(values)
                    for algorithm, values in cells.items()}
        for benchmark, cells in grouped.items()
    }
    average = {name: agg.mean
               for name, agg in aggregate_by(list(samples),
                                             key="algorithm").items()}
    return per_benchmark, average


def report_from_samples(samples: Sequence[KpaSample],
                        algorithms: Optional[Sequence[str]] = None,
                        benchmarks: Optional[Sequence[str]] = None) -> str:
    """Render the Fig. 6 report (6a table, 6b table, shape checks).

    Args:
        samples: Flat KPA samples (e.g.
            :meth:`repro.api.RunReport.kpa_samples`).
        algorithms: Column order of Fig. 6a and row order of Fig. 6b
            (default: sorted names).
        benchmarks: Row order of Fig. 6a — a scenario's ``benchmarks``;
            benchmarks not listed follow in sample order.
    """
    per_benchmark, average = kpa_tables_from_samples(samples)
    if algorithms is None:
        algorithms = sorted(average)
    rank = {name: index for index, name in enumerate(benchmarks or ())}
    per_benchmark = dict(sorted(per_benchmark.items(),
                                key=lambda item: rank.get(item[0], len(rank))))
    return _render_report(per_benchmark, average, list(algorithms))


def store_context(store) -> tuple:
    """Shared (manifest, scenario, records) loading of the store reports.

    Raises:
        StoreError: when the store has neither records nor a scenario stamp
            (i.e. it is not a results store at all).
    """
    from ..api.store import StoreError

    try:
        manifest = store.manifest()
    except StoreError:
        manifest = None
    scenario = None
    if manifest is not None:
        from ..api.scenario import Scenario

        # validate=False: a store must stay reportable even when the
        # components that produced it are not registered here.
        scenario = Scenario.from_dict(manifest["scenario"], validate=False)
    else:
        try:
            scenario = store.stamped_scenario()
        except StoreError:
            scenario = None  # corrupt stamp: report from raw records
    records = list(store.records())
    if scenario is None and not records:
        raise StoreError(
            f"{store.root} is not a results store: no job records, no "
            "manifest and no scenario stamp")
    return manifest, scenario, records


def store_report_json(store, context: Optional[tuple] = None) -> Dict:
    """Machine-readable counterpart of :func:`store_report`.

    Everything :func:`store_report` renders as text — the Fig. 6 KPA
    tables, the per-axis and per-(benchmark, axis) sweep data with
    confidence intervals, metric counts and the timing summaries — as one
    JSON-serialisable dictionary, so downstream tooling (plotting, paper
    tables, regression dashboards) can consume a store without scraping
    the text report.  ``repro.cli report <store> --json`` writes it to
    disk.

    Args:
        store: The results store to report on.
        context: A ``(manifest, scenario, records)`` triple from a prior
            :func:`store_context` call, so one disk read can feed both the
            text and the JSON report; loaded from ``store`` when omitted.

    Raises:
        StoreError: when the store is not a results store at all.
    """
    from ..api.store import kpa_samples_from_records
    from .figures import axis_sweeps_from_records

    manifest, scenario, records = context if context is not None \
        else store_context(store)
    samples = kpa_samples_from_records(records)
    per_benchmark, average = kpa_tables_from_samples(samples) \
        if samples else ({}, {})

    def sweep_payload(sweep) -> Dict:
        return {
            "axis": sweep.axis,
            "benchmark": sweep.benchmark,
            "algorithms": sweep.algorithms(),
            "rows": [
                {
                    "value": value,
                    "kpa": dict(sweep.kpa.get(value, {})),
                    "ci95": dict(sweep.kpa_ci.get(value, {})),
                    "counts": dict(sweep.counts.get(value, {})),
                }
                for value in sweep.values
            ],
        }

    metric_counts: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "metric":
            name = str(record.get("metric"))
            metric_counts[name] = metric_counts.get(name, 0) + 1

    return {
        "store": str(store.root),
        "scenario": scenario.to_dict() if scenario is not None else None,
        "scenario_fingerprint": (scenario.fingerprint()
                                 if scenario is not None else None),
        "completion": store.completion(),
        "figure6": {"per_benchmark": per_benchmark, "average": average},
        "axis_sweeps": [sweep_payload(sweep) for sweep
                        in axis_sweeps_from_records(records)],
        "benchmark_axis_sweeps": [sweep_payload(sweep) for sweep
                                  in axis_sweeps_from_records(
                                      records, per_benchmark=True)],
        "metric_records": metric_counts,
        "timing": (manifest.get("jobs", [])
                   if manifest is not None else []),
        "failures": store.failures(),
    }


def store_report(store, context: Optional[tuple] = None) -> str:
    """Render the full ``repro.cli report`` text for a results store.

    Everything comes from disk — records, manifest, scenario stamp — and
    nothing is re-simulated, so the report works long after the run, on a
    different machine, and *degrades gracefully* on incomplete stores:

    * a store whose run was interrupted before the manifest was written
      falls back to the scenario stamp for the workload description,
    * a partially filled store reports over the records it has and flags
      the run as PARTIAL with the outstanding job count,
    * sections render only when their data exists (KPA tables need attack
      records, sweep tables need matrix axes, the timing table needs a
      manifest).

    Raises:
        StoreError: when the store has neither records nor a scenario stamp
            (i.e. it is not a results store at all).
    """
    from ..api.store import kpa_samples_from_records
    from .figures import axis_sweeps_from_records
    from .tables import axis_sweep_table_text, timing_table_text

    manifest, scenario, records = context if context is not None \
        else store_context(store)

    parts: List[str] = [f"Results store: {store.root}"]
    if scenario is not None:
        parts.append(f"Scenario: {scenario.name!r} "
                     f"(fingerprint {scenario.fingerprint()})")
        axes = scenario.axis_values()
        if axes:
            rendered = "; ".join(f"{axis}={values}"
                                 for axis, values in axes.items())
            parts.append(f"Matrix axes: {rendered}")
    quarantined_ids = store.failed_job_ids()
    completion = store.completion()
    if completion is not None:
        outstanding = completion["total"] - completion["records"]
        # Quarantined jobs are skipped by a plain resume, so the PARTIAL
        # hint distinguishes "just resume" from "raise the retry budget" —
        # a store where *every* missing job is quarantined (e.g. all jobs
        # poisoned) would otherwise suggest a resume that does nothing.
        quarantined_missing = min(len(quarantined_ids), outstanding)
        resumable = outstanding - quarantined_missing
        if completion["complete"]:
            state = "COMPLETE"
        elif resumable == 0 and quarantined_missing > 0:
            state = (f"PARTIAL — all {quarantined_missing} missing job(s) "
                     "quarantined (re-run with a higher --retries budget)")
        elif quarantined_missing > 0:
            state = (f"PARTIAL — {resumable} job(s) outstanding (resume "
                     f"with 'repro-lock run') + {quarantined_missing} "
                     "quarantined (needs a higher --retries budget)")
        else:
            state = (f"PARTIAL — {outstanding} job(s) outstanding "
                     "(resume with 'repro-lock run')")
        parts.append(f"Records: {completion['records']}/{completion['total']}"
                     f" ({state})")
    else:
        parts.append(f"Records: {len(records)} (expected total unknown — "
                     "no manifest or scenario stamp)")
    if manifest is None:
        parts.append("Note: no manifest (run interrupted?) — reporting from "
                     "raw records" + ("" if scenario is None
                                      else " and the scenario stamp"))

    samples = kpa_samples_from_records(records)
    if samples:
        algorithms = ([spec.algorithm for spec in scenario.lockers]
                      if scenario is not None else None)
        benchmarks = scenario.benchmarks if scenario is not None else None
        parts += ["", report_from_samples(samples, algorithms=algorithms,
                                          benchmarks=benchmarks)]

    for sweep in axis_sweeps_from_records(records):
        parts += ["", axis_sweep_table_text(sweep)]

    # Per-(benchmark, axis) views add information only when the records
    # span more than one benchmark; otherwise they would duplicate the
    # aggregates above.
    benchmarks = {record.get("benchmark") for record in records
                  if record.get("kind") == "attack"}
    if len(benchmarks) > 1:
        for sweep in axis_sweeps_from_records(records, per_benchmark=True):
            parts += ["", axis_sweep_table_text(sweep)]

    metric_counts: Dict[str, int] = {}
    for record in records:
        if record.get("kind") == "metric":
            name = str(record.get("metric"))
            metric_counts[name] = metric_counts.get(name, 0) + 1
    if metric_counts:
        rendered = ", ".join(f"{name} ({count})"
                             for name, count in sorted(metric_counts.items()))
        parts += ["", f"Metric records: {rendered} (see {store.jobs_dir})"]

    if quarantined_ids:
        from .tables import failures_table_text

        # Latest ledger entry per job, rendered as the same aligned table
        # 'repro-lock run' prints — a store holding only quarantined jobs
        # (no successful records at all) still gets a full failure report.
        entries = [dict(entry, skipped=True)
                   for _, entry in sorted(quarantined_ids.items())]
        parts += ["", f"Quarantined jobs: {len(entries)} "
                      f"(ledger: {store.failures_path})",
                  failures_table_text(entries),
                  "Raise the retry budget ('repro-lock run --retries N') to "
                  "re-execute them on resume."]

    if manifest is not None and manifest.get("jobs"):
        parts += ["", timing_table_text(manifest["jobs"])]
    return "\n".join(parts)


def _render_report(per_benchmark: Mapping[str, Mapping[str, float]],
                   average: Mapping[str, float],
                   algorithms: Sequence[str]) -> str:
    ordered = {name: average[name] for name in algorithms if name in average}
    ordered.update({name: value for name, value in average.items()
                    if name not in ordered})
    average = ordered
    parts = [
        kpa_table_text(per_benchmark, algorithms=list(algorithms)),
        "",
        average_kpa_text(average, paper=PAPER_AVERAGE_KPA),
        "",
        "Shape checks vs. the paper:",
    ]
    for check in shape_checks(average, per_benchmark).values():
        parts.append("  " + check.to_text())
    return "\n".join(parts)
