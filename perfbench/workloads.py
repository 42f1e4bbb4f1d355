"""Workload definitions: seeded scenario streams of a fixed shape.

Each workload is a closed loop over a *cycle* of scenario templates, one
per benchmark and locker.  The template fixes the shape — benchmarks,
scale, lockers, attack and metric settings — and the seed only draws the
scenario seeds, so a different seed changes every locked design and random
stream but not the amount or kind of work.  The program under test
receives only the generated scenarios.

Sizes: ``full`` is the measured configuration; ``tiny`` keeps the same
shape at a fraction of the cost, for the harness's own tests.
"""

from __future__ import annotations

import random
from typing import Dict, List

WORKLOADS = ("attack-relock", "metric-sim", "service-matrix")
SIZES = ("full", "tiny")

#: Client threads of the service workload (the machine has two cores).
SERVICE_CLIENTS = 2

#: Worker processes of each service run (``ScenarioServer(run_jobs=...)``):
#: more than one job per scenario, so every run uses the process backend.
SERVICE_RUN_JOBS = 2

#: Small bus-controller benchmarks of the service workload.
_SERVICE_BENCHMARKS = ("SASC", "SIM_SPI", "USB_PHY", "I2C_SL")


def _lockers(*algorithms: str) -> List[Dict[str, object]]:
    return [{"algorithm": name, "key_budget_fraction": 0.75}
            for name in algorithms]


def _attack_relock(size: str) -> List[Dict[str, object]]:
    """Fig. 6 SnapShot jobs: 20 relock rounds, auto-ML budget 3, 256 vectors.

    MD5 and FIR run at full scale.  N_2046 runs at 20% of its size: at
    full size one of its jobs takes about 22 s, longer than a run.  At 20%
    its jobs cost clearly more than MD5 jobs and FIR jobs clearly less, so
    the median job and scenario are always MD5 ones, whatever the seed.
    """
    tiny = size == "tiny"
    attack = {"name": "snapshot", "rounds": 2 if tiny else 20,
              "time_budget": 1.0 if tiny else 3.0, "feature_set": "pair",
              "functional_vectors": 16 if tiny else 256}
    cycle = [("MD5", 1.0), ("FIR", 1.0), ("N_2046", 0.2)]
    return [{"name": f"relock-{bench.lower()}-{locker}",
             "benchmarks": [bench], "lockers": _lockers(locker),
             "attacks": [attack], "samples": 1,
             "scale": 0.1 if tiny else scale}
            for bench, scale in cycle for locker in ("era", "assure")]


def _metric_sim(size: str) -> List[Dict[str, object]]:
    """Simulation-bound metric jobs on large locked designs.

    The three metrics of a scenario lock the same design with the same
    seed, so they share its compiled plan through the plan cache.
    """
    tiny = size == "tiny"
    vectors = 16 if tiny else 2048
    metrics = [
        {"name": "corruption",
         "options": {"vectors": vectors, "wrong_keys": 2 if tiny else 32}},
        {"name": "key-sensitivity", "options": {"vectors": vectors}},
        {"name": "avalanche", "options": {"vectors": vectors}},
    ]
    cycle = [("MD5", 1.0), ("SHA256", 1.0), ("DFT", 1.0), ("N_1023", 0.25)]
    return [{"name": f"metric-{bench.lower()}-{locker}",
             "benchmarks": [bench], "lockers": _lockers(locker),
             "metrics": metrics, "samples": 1,
             "scale": 0.1 if tiny else scale}
            for bench, scale in cycle for locker in ("era", "assure")]


def _service_matrix(size: str) -> List[Dict[str, object]]:
    """Small matrix scenarios: a short attack and an avalanche metric."""
    tiny = size == "tiny"
    cycle = []
    for bench in _SERVICE_BENCHMARKS:
        for locker in ("era", "assure"):
            cycle.append({
                "name": f"svc-{bench.lower()}-{locker}",
                "benchmarks": [bench], "lockers": _lockers(locker),
                "attacks": [{"name": "snapshot", "rounds": 2 if tiny else 3,
                             "time_budget": 1.0, "feature_set": "pair",
                             "functional_vectors": 16}],
                "metrics": [{"name": "avalanche",
                             "options": {"vectors": 8 if tiny else 16}}],
                "samples": 1, "scale": 0.1 if tiny else 0.3})
    return cycle


_CYCLES = {
    "attack-relock": _attack_relock,
    "metric-sim": _metric_sim,
    "service-matrix": _service_matrix,
}


#: Seconds one unit of work takes on the reference machine (2 vCPU x86-64
#: container, Python 3.11) when it runs slow, 1.4 times the reference kernel
#: time: a cycle of a serial workload, one scenario of a service client.
#: :func:`work` sizes a run from them, so a run stays within its time on a
#: slow host too.
UNIT_SECONDS = {
    ("attack-relock", "full"): 14.0, ("attack-relock", "tiny"): 0.75,
    ("metric-sim", "full"): 16.0, ("metric-sim", "tiny"): 0.9,
    ("service-matrix", "full"): 0.3, ("service-matrix", "tiny"): 0.3,
}


def work(workload: str, seconds: float, size: str = "full") -> str:
    """The work of a run sized to take about ``seconds``.

    Serial workloads run whole cycles (``"3"``); each service client runs
    a number of scenarios (``"68,68"``).  The work, not the time, is fixed,
    so runs of two versions of the program do identical work and a faster
    program finishes sooner.
    """
    units = max(1, round(seconds / UNIT_SECONDS[(workload, size)]))
    if workload == "service-matrix":
        return ",".join([str(units)] * SERVICE_CLIENTS)
    return str(units)


def cycle(workload: str, size: str = "full") -> List[Dict[str, object]]:
    """The scenario templates of one cycle of ``workload``."""
    if workload not in _CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from "
                         f"{', '.join(SIZES)}")
    return _CYCLES[workload](size)


def scenario(workload: str, seed: int, index: int, size: str = "full",
             client: int = 0) -> Dict[str, object]:
    """The ``index``-th scenario a caller of ``workload`` submits.

    The template is position ``index`` of the cycle (clients start at
    different positions); the scenario seed is drawn from the benchmark
    seed, the client and the index, so every scenario is distinct and the
    stream is a pure function of its arguments.
    """
    templates = cycle(workload, size)
    offset = client * (len(templates) // SERVICE_CLIENTS)
    template = dict(templates[(index + offset) % len(templates)])
    rng = random.Random(f"{workload}/{seed}/{client}/{index}")
    template["seed"] = rng.randrange(2 ** 31)
    template["name"] = f"{template['name']}-c{client}-{index}"
    return template
