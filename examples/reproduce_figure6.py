#!/usr/bin/env python3
"""Reproduce the Fig. 6 evaluation: SnapShot KPA vs. ASSURE / HRA / ERA.

By default the script runs a *reduced* configuration (scaled benchmarks, a
handful of locked samples, a short auto-ML budget) so it finishes in a few
minutes on a laptop while preserving the paper's qualitative result.  Pass
``--full`` for the full-size benchmarks and paper-style sample counts — this
takes hours, exactly like the original evaluation.

The output is the Fig. 6a per-benchmark KPA table, the Fig. 6b average KPA
table side by side with the paper's numbers, and the shape checks the
reproduction is judged by (see EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse

from repro.api import AttackSpec, LockerSpec, Runner, Scenario
from repro.bench import benchmark_names
from repro.eval import report_from_samples


def build_scenario(args: argparse.Namespace) -> Scenario:
    """The Fig. 6 scenario: every benchmark x ASSURE/HRA/ERA x SnapShot."""
    if args.full:
        benchmarks = args.benchmarks or benchmark_names()
        scale, samples, rounds, budget = 1.0, 10, args.rounds or 200, 30.0
    else:
        benchmarks = args.benchmarks or ["MD5", "FIR", "SASC", "USB_PHY",
                                         "N_2046", "N_1023"]
        scale, samples, rounds, budget = (args.scale, args.samples,
                                          args.rounds or 40, 5.0)
    return Scenario(
        name="figure6",
        benchmarks=tuple(benchmarks),
        lockers=tuple(LockerSpec(name) for name in ("assure", "hra", "era")),
        attacks=(AttackSpec("snapshot", rounds=rounds, time_budget=budget),),
        samples=samples,
        scale=scale,
        seed=args.seed,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="full-size benchmarks and paper-style sample counts")
    parser.add_argument("--benchmarks", nargs="*", default=None,
                        help="subset of benchmarks to evaluate")
    parser.add_argument("--scale", type=float, default=0.15,
                        help="benchmark scale for the reduced configuration")
    parser.add_argument("--samples", type=int, default=3,
                        help="locked samples per benchmark/algorithm (reduced run)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="relocking rounds per attacked sample")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scenario = build_scenario(args)
    (attack,) = scenario.attacks
    print(f"Benchmarks : {', '.join(scenario.benchmarks)}")
    print(f"Scale      : {scenario.scale}")
    print(f"Samples    : {scenario.samples} per benchmark/algorithm")
    print(f"Relock rounds per sample: {attack.rounds}")
    print()

    report = Runner(scenario).run()
    print(report_from_samples(
        report.kpa_samples(),
        algorithms=[spec.algorithm for spec in scenario.lockers]))


if __name__ == "__main__":
    main()
