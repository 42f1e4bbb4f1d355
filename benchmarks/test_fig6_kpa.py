"""Figure 6 — KPA of the RTL SnapShot attack vs. ASSURE, HRA and ERA.

Runs the complete lock → attack → KPA pipeline over all 14 benchmarks of the
paper (reduced scale and sample counts by default; set ``REPRO_FULL_EVAL=1``
for the full-size run) and regenerates the Fig. 6a per-benchmark table and the
Fig. 6b average table, then checks the paper's qualitative claims.
"""

from __future__ import annotations

from repro.api import AttackSpec, LockerSpec, Runner, Scenario
from repro.bench import benchmark_names
from repro.eval import (
    PAPER_AVERAGE_KPA,
    kpa_tables_from_samples,
    report_from_samples,
    shape_checks,
)

from .conftest import write_result

ALGORITHMS = ("assure", "hra", "era")


def fig6_scenario(benchmarks, scale, samples, rounds, time_budget,
                  seed) -> Scenario:
    """The Fig. 6 workload: benchmarks x ASSURE/HRA/ERA x SnapShot."""
    return Scenario(
        name="fig6",
        benchmarks=tuple(benchmarks),
        lockers=tuple(LockerSpec(name) for name in ALGORITHMS),
        attacks=(AttackSpec("snapshot", rounds=rounds,
                            time_budget=time_budget),),
        samples=samples, scale=scale, seed=seed)


def run_fig6(benchmark, scenario: Scenario):
    """Run the scenario once under pytest-benchmark; return its samples."""
    report = benchmark.pedantic(lambda: Runner(scenario).run(),
                                rounds=1, iterations=1)
    assert not report.failures, report.failures[0]["error"]
    return report.kpa_samples()


def test_fig6_kpa_full_suite(benchmark, results_dir, eval_scale, eval_samples,
                             eval_rounds, full_evaluation):
    samples = run_fig6(benchmark, fig6_scenario(
        benchmark_names(), scale=eval_scale, samples=eval_samples,
        rounds=eval_rounds, time_budget=30.0 if full_evaluation else 4.0,
        seed=0))

    report = report_from_samples(samples, algorithms=ALGORITHMS)
    print("\n" + report)
    write_result(results_dir, "fig6_kpa", report)

    per_benchmark, average = kpa_tables_from_samples(samples)
    checks = shape_checks(average, per_benchmark)

    # The headline shape of Fig. 6b: ERA sits at the random-guess line while
    # ASSURE and HRA leak.  (The HRA margin is smaller than the paper's
    # because its randomised pair-mode steps diversify the target key bits —
    # see EXPERIMENTS.md.)
    assert checks["era_random"].holds, checks["era_random"].detail
    assert checks["assure_above_era"].holds, checks["assure_above_era"].detail
    assert average["hra"] > average["era"] + 2.0, average

    # Fig. 6a extremes: the fully imbalanced N_2046 is ASSURE's worst case and
    # the fully balanced N_1023 gives no algorithm away.
    assert per_benchmark["N_2046"]["assure"] >= 85.0
    assert abs(per_benchmark["N_1023"]["assure"] - 50.0) <= 20.0

    # Record how far the averages sit from the paper's absolute numbers (not
    # asserted — the substrate differs — but captured in the results file).
    deltas = {name: average.get(name, float("nan")) - value
              for name, value in PAPER_AVERAGE_KPA.items()}
    delta_text = "\n".join(f"  {name}: measured-paper = {delta:+.1f} points"
                           for name, delta in deltas.items())
    write_result(results_dir, "fig6_kpa_delta_vs_paper", delta_text)


def test_fig6_kpa_smoke_subset(benchmark, results_dir):
    """A minutes-scale smoke variant over a representative benchmark subset."""
    samples = run_fig6(benchmark, fig6_scenario(
        ["MD5", "FIR", "SASC", "N_2046", "N_1023"], scale=0.1, samples=2,
        rounds=15, time_budget=3.0, seed=1))
    report = report_from_samples(samples, algorithms=ALGORITHMS)
    print("\n" + report)
    write_result(results_dir, "fig6_kpa_smoke", report)

    _, average = kpa_tables_from_samples(samples)
    assert average["assure"] > average["era"]
    assert abs(average["era"] - 50.0) <= 20.0
