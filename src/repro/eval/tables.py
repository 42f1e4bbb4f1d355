"""Plain-text table rendering for experiment results and figure data."""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table.

    Args:
        headers: Column headers.
        rows: Row values (converted with ``str``; floats get two decimals).
        title: Optional title line printed above the table.
    """
    def render(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)

    rendered_rows = [[render(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))

    def line(values: Sequence[str]) -> str:
        return " | ".join(value.ljust(widths[i]) for i, value in enumerate(values))

    parts: List[str] = []
    if title:
        parts.append(title)
    parts.append(line(list(headers)))
    parts.append("-+-".join("-" * w for w in widths))
    parts.extend(line(row) for row in rendered_rows)
    return "\n".join(parts)


def kpa_table_text(per_benchmark: Mapping[str, Mapping[str, float]],
                   algorithms: Sequence[str] = ("assure", "hra", "era"),
                   title: str = "KPA (%) per benchmark (Fig. 6a)") -> str:
    """Render the Fig. 6a per-benchmark KPA table."""
    headers = ["benchmark"] + [a.upper() for a in algorithms]
    rows = []
    for benchmark, values in per_benchmark.items():
        rows.append([benchmark] + [values.get(a, float("nan")) for a in algorithms])
    return format_table(headers, rows, title=title)


def average_kpa_text(average: Mapping[str, float],
                     paper: Optional[Mapping[str, float]] = None,
                     title: str = "Average KPA (%) (Fig. 6b)") -> str:
    """Render the Fig. 6b average-KPA table, optionally next to paper values."""
    if paper:
        headers = ["algorithm", "measured", "paper"]
        rows = [[name.upper(), value, paper.get(name, float("nan"))]
                for name, value in average.items()]
    else:
        headers = ["algorithm", "measured"]
        rows = [[name.upper(), value] for name, value in average.items()]
    return format_table(headers, rows, title=title)


def trajectory_table_text(trajectories: Mapping[str, "object"],
                          title: str = "Metric evolution (Fig. 5b)") -> str:
    """Render key-bit cost to full security for each algorithm's trajectory."""
    headers = ["algorithm", "points", "final M_g_sec", "final M_r_sec",
               "bits to M_g_sec=100"]
    rows = []
    for name, data in trajectories.items():
        rows.append([
            name,
            len(data.key_bits),
            data.global_metric[-1] if data.global_metric else float("nan"),
            data.restricted_metric[-1] if data.restricted_metric else float("nan"),
            data.bits_to_full_security if data.bits_to_full_security is not None else "-",
        ])
    return format_table(headers, rows, title=title)


def axis_sweep_table_text(sweep: "object",
                          algorithms: Optional[Sequence[str]] = None) -> str:
    """Render one per-axis sweep table (mean KPA per axis value × locker).

    Cells with more than one contributing record render as
    ``mean ±hw`` where ``hw`` is the 95 % confidence half-width of the
    mean (the seed-robustness interval on seed-swept scenarios).

    Args:
        sweep: An :class:`~repro.eval.figures.AxisSweepData`.
        algorithms: Column order; defaults to the lockers present.
    """
    if algorithms is None:
        algorithms = sweep.algorithms()
    headers = [sweep.axis] + [a.upper() for a in algorithms] + ["records"]

    def cell(value: object, algorithm: str) -> object:
        mean = sweep.kpa.get(value, {}).get(algorithm)
        if mean is None:
            return float("nan")
        half = getattr(sweep, "kpa_ci", {}).get(value, {}).get(algorithm, 0.0)
        if half > 0.0:
            return f"{mean:.2f} ±{half:.2f}"
        return mean

    rows = []
    for value in sweep.values:
        counts = sweep.counts.get(value, {})
        rows.append([value]
                    + [cell(value, a) for a in algorithms]
                    + [sum(counts.values())])
    benchmark = getattr(sweep, "benchmark", None)
    scope = f"{benchmark}, " if benchmark else ""
    return format_table(headers, rows,
                        title=f"Mean KPA (%) per {sweep.axis} "
                              f"({scope}scenario matrix axis)")


def timing_table_text(job_summaries: Sequence[Mapping],
                      title: str = "Measured wall time per benchmark x locker"
                      ) -> str:
    """Render the measured wall-time table from manifest summaries.

    Groups the manifest's per-job summaries by (benchmark, locker) and shows
    the number of jobs and their total measured ``elapsed_seconds``.
    """
    groups: Dict[tuple, Dict[str, float]] = {}
    for summary in job_summaries:
        key = (str(summary.get("benchmark")), str(summary.get("locker")))
        bucket = groups.setdefault(key, {"jobs": 0, "elapsed": 0.0})
        bucket["jobs"] += 1
        bucket["elapsed"] += float(summary.get("elapsed_seconds") or 0.0)
    rows = [[benchmark, locker, int(bucket["jobs"]), bucket["elapsed"]]
            for (benchmark, locker), bucket in sorted(groups.items())]
    return format_table(["benchmark", "locker", "jobs", "elapsed (s)"], rows,
                        title=title)


def failures_table_text(failures: Sequence[Mapping]) -> str:
    """Render failure-ledger entries as the failed-jobs table.

    Shared by ``repro-lock run`` (this run's quarantines) and
    ``repro-lock report`` (the store's ledger): one aligned row per entry
    with the job id, failure, transient/permanent classification, attempts
    spent, and whether the job failed this run or was skipped as known
    poison on resume.
    """
    rows = [(str(entry.get("job_id", "?")),
             str(entry.get("failure", "?")),
             str(entry.get("classification", "?")),
             str(entry.get("attempts", "?")),
             "skipped" if entry.get("skipped") else "this run")
            for entry in failures]
    header = ("job", "failure", "class", "attempts", "when")
    widths = [max(len(header[col]), *(len(row[col]) for row in rows))
              for col in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    lines.extend("  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                 .rstrip() for row in rows)
    return "\n".join(lines)


def observation_table_text(pools: Mapping[str, "object"],
                           title: str = "Operation-selection study (Fig. 4)") -> str:
    """Render the Fig. 4 observation-pool summary."""
    headers = ["scenario", "contradiction ratio", "'+' real bias",
               "inferred accuracy", "train/test overlap"]
    rows = []
    for name, pool in pools.items():
        rows.append([name, pool.contradiction_ratio(), pool.real_operator_bias("+"),
                     pool.inferred_accuracy, pool.overlap_fraction])
    return format_table(headers, rows, title=title)
