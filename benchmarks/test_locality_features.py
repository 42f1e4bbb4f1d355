"""Locality features — the paper's pair encoding against ASSURE, HRA and ERA.

The RTL SnapShot locality of the paper is the bare operation pair
``[C1, C2]``.  It is run against ASSURE, HRA and ERA targets over three
seeds, and each cell is the mean KPA with its 95 % confidence half-width.
The table shows that (a) the pair encoding already captures the ASSURE leak
and (b) ERA-balanced designs hold the attack near the random-guess line —
the defence works at the information level, not the feature level.
"""

from __future__ import annotations

import random
import statistics

from repro.attacks import SnapShotAttack
from repro.bench import load_benchmark
from repro.eval import format_table
from repro.locking import AssureLocker, ERALocker, HRALocker
from repro.ml import RandomForestClassifier

from .conftest import write_result

BENCHMARKS = ["MD5", "RSA", "SHA256"]
SCALE = 0.15
ROUNDS = 25
SEEDS = (0, 1, 2)

#: Two-sided 95 % quantile of Student's t with ``len(SEEDS) - 1`` = 2
#: degrees of freedom.
T_95 = 4.303

#: Target lockers, in column order, by their attack ``algorithm`` name.
TARGETS = {
    "assure": lambda rng: AssureLocker("serial", rng=rng),
    "hra": lambda rng: HRALocker(rng=rng),
    "era": lambda rng: ERALocker(rng=rng),
}


def _kpas(name, seed):
    """KPA of every target on benchmark ``name`` for one seed."""
    design = load_benchmark(name, scale=SCALE, seed=seed)
    budget = int(0.75 * design.num_operations())
    kpas = {}
    for algorithm, make in TARGETS.items():
        target = make(random.Random(seed)).lock(design, budget).design
        attack = SnapShotAttack(
            model=RandomForestClassifier(n_estimators=30, random_state=seed),
            rounds=ROUNDS, rng=random.Random(7 + seed))
        kpas[algorithm] = attack.attack(target, algorithm=algorithm).kpa
    return kpas


def _run_pair_kpas():
    """Per benchmark, the seeds' KPAs of every target."""
    samples = {}
    for name in BENCHMARKS:
        runs = [_kpas(name, seed) for seed in SEEDS]
        samples[name] = {algorithm: [run[algorithm] for run in runs]
                         for algorithm in TARGETS}
    return samples


def _cell(values):
    half = T_95 * statistics.stdev(values) / len(values) ** 0.5
    return f"{statistics.mean(values):.1f} ±{half:.1f}"


def test_pair_locality_kpa(benchmark, results_dir):
    samples = benchmark.pedantic(_run_pair_kpas, rounds=1, iterations=1)
    table = format_table(
        ["benchmark"] + [f"{algorithm.upper()} (pair)"
                         for algorithm in TARGETS],
        [[name] + [_cell(samples[name][algorithm]) for algorithm in TARGETS]
         for name in BENCHMARKS],
        title=("Pair locality KPA %, mean ±95 % CI over "
               f"seeds {', '.join(map(str, SEEDS))} (75 % budget)"))
    print("\n" + table)
    write_result(results_dir, "pair_locality_kpa", table)

    def benchmark_means(algorithm):
        return [statistics.mean(samples[name][algorithm])
                for name in BENCHMARKS]

    # The paper's bare pair encoding already extracts the ASSURE leak.
    assert statistics.mean(benchmark_means("assure")) > 55.0
    # ERA holds the attack near the random-guess line.
    assert statistics.mean(benchmark_means("era")) <= 65.0
