"""Run the benchmark on several seeds and report the spread of each metric.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --runs 10 [--workload attack-relock ...]

For every workload and end-to-end metric it prints the median of the runs
and the interquartile range as a share of the median (``statistics.
quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of the bound is steady; the
exit code is 1 when any spread except that of ``setup_s`` exceeds its
bound.  Raw results are appended to ``.perfbench/steadiness.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402


def main() -> int:
    config = json.loads(Path("BENCHMARK.json").read_text())
    names = [entry["name"] for entry in config["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    log = Path(".perfbench") / "steadiness.jsonl"
    log.parent.mkdir(exist_ok=True)
    steady = True
    for workload in args.workload or names:
        values = {metric["name"]: [] for metric in config["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = config["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(config["run_seconds"]), "--trace", "0"]
            output = subprocess.run(command, capture_output=True, text=True,
                                    check=True).stdout
            result = json.loads(output.strip().splitlines()[-1])
            with log.open("a") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         **result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: output check failed")
                steady = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"== {workload} ({args.runs} runs)")
        for metric in config["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            spread = check.spread(values[name])
            verdict = ("steady" if spread < bound / 3 else
                       "within bound" if spread <= bound else "TOO WIDE")
            if spread > bound and name != "setup_s":
                steady = False
            print(f"   {name:<18} median {check.median(values[name]):<12.6g}"
                  f" spread {spread:7.2%}  bound {bound:.0%}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
