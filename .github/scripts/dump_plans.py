#!/usr/bin/env python
"""Dump the compiled simulation plan of every locked benchmark as JSON.

Usage: dump_plans.py OUT_DIR

Locks every registered benchmark at scales 0.1 and 0.3 with every
registered locker (seed 1, half the design's operations as key budget),
compiles its plan and writes one canonical JSON file per plan to
``OUT_DIR/<benchmark>-<scale>-<locker>.json``:

* ``steps``: each step's target, width, kind, sorted reads and key bits,
  in plan order;
* ``stats``: the plan's ``PlanStats``;
* ``outputs``: the plan's output names;
* ``values``: every output's value on 64 seeded input vectors, under the
  correct key and under the key with every bit flipped;
* ``sweeps``: the ``sweep_differences`` counts (differing lanes and
  flipped output bits per point after point 0) on the same vectors: each
  single key bit flipped against the all-zero key (the key-sensitivity
  shape, which takes the cone path), 4 seeded wrong keys against the
  correct key (the corruption shape) and each bit of the widest data input
  flipped under the correct key (the avalanche shape).

Run it with ``PYTHONPATH=src`` from two checkouts (or under two
``PYTHONHASHSEED`` values) and compare the directories with ``diff -r``:
equal dumps mean equal plans, step for step.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path

from repro.api.registry import locker_names, make_locker
from repro.bench import benchmark_names, load_benchmark
from repro.sim import BatchSimulator
from repro.sim.plan.passes import compile_plan
from repro.sim.vectors import input_signals, random_input_batch, \
    random_wrong_key

SCALES = (0.1, 0.3)
SEED = 1
VECTORS = 64
WRONG_KEYS = 4


def counts(differences) -> dict:
    """The JSON form of one ``SweepDifferences``."""
    return {"lanes": differences.lanes, "bits": differences.bits}


def sweep_dump(simulator: BatchSimulator, locked, batch: dict) -> dict:
    """Sweep counts of the key-sensitivity, corruption and avalanche
    shapes on ``batch``."""
    width = locked.key_width
    zeros = [0] * width
    flips = [zeros] + [zeros[:bit] + [1] + zeros[bit + 1:]
                       for bit in range(width)]
    correct = locked.correct_key
    rng = random.Random(SEED)
    wrong = [correct] + [random_wrong_key(correct, rng)
                         for _ in range(WRONG_KEYS)]
    signal, signal_width = max(input_signals(locked),
                               key=lambda pair: pair[1])
    context = {name: values for name, values in batch.items()
               if name != signal}
    base = batch[signal][0]
    bindings = [{signal: base}] + [{signal: base ^ 1 << bit}
                                   for bit in range(signal_width)]
    return {
        "key_bits": counts(simulator.sweep_differences(
            batch, keys=flips, n=VECTORS)),
        "corruption": counts(simulator.sweep_differences(
            batch, keys=wrong, n=VECTORS)),
        "avalanche": dict(counts(simulator.sweep_differences(
            context, keys=[correct] * len(bindings), bindings=bindings,
            n=VECTORS)), signal=signal),
    }


def plan_dump(benchmark: str, scale: float, locker: str) -> dict:
    """The canonical JSON form of one locked benchmark's plan."""
    design = load_benchmark(benchmark, scale=scale, seed=SEED)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(SEED)).lock(design,
                                                           budget).design
    plan = compile_plan(locked)
    simulator = BatchSimulator(locked, plan=plan)
    batch = random_input_batch(locked, random.Random(SEED), VECTORS)
    correct = locked.correct_key
    flipped = [1 - bit for bit in correct]
    return {
        "steps": [{"target": step.target, "width": step.width,
                   "kind": step.kind, "reads": sorted(step.reads),
                   "key_bits": list(step.key_bits)}
                  for step in plan.steps],
        "stats": dataclasses.asdict(plan.stats),
        "outputs": list(plan.outputs),
        "values": {name: simulator.run_batch(batch, key=key, n=VECTORS)
                   for name, key in (("correct", correct),
                                     ("flipped", flipped))},
        "sweeps": sweep_dump(simulator, locked, batch),
    }


def main(argv) -> int:
    if len(argv) != 2:
        sys.exit(f"usage: {argv[0]} OUT_DIR")
    out = Path(argv[1])
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for benchmark in benchmark_names():
        for scale in SCALES:
            for locker in locker_names():
                dump = plan_dump(benchmark, scale, locker)
                path = out / f"{benchmark}-{scale}-{locker}.json"
                path.write_text(json.dumps(dump, indent=1, sort_keys=True)
                                + "\n")
                count += 1
    print(f"wrote {count} plan dump(s) to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
