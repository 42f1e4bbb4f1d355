"""How many times a job walks its locked cell, pinned as counts.

A job loads its base design, locks it (ASSURE orders its serial selection
by the dataflow's topology), and then attacks or measures the locked
design, which compiles its simulation plan.  Each of those walks the whole
design: a structural copy (``clone``), a site collection
(``collect_sites``), a cycle search (``_find_cycle``), a topological order
(``_kahn_order``) or a plan compile (``compile_plan``).  Wall time hides a
walk that comes back in the noise of a shared host; a count does not.  The counts below are those of one
ASSURE SnapShot job and one metric job of the same cell on MD5 at scale
0.3, run through ``execute_job`` with empty caches, of the serial order
and the design analysis on every registered benchmark, whose dataflow has
no cycle to break, and of the topological orders one analysis of MD5 at
full scale takes.
"""

import random
from collections import OrderedDict
from contextlib import ExitStack
from unittest import mock

import pytest

from repro.api import AttackSpec, LockerSpec, MetricSpec, Scenario, execute_job
from repro.api import runner
from repro.bench import benchmark_names, load_benchmark
from repro.locking import AssureLocker
from repro.rtlir import analyze_design, opgraph
from repro.rtlir.sites import collect_sites
from repro.sim import clear_plan_cache
from repro.sim.plan.passes import compile_plan
from repro.verilog.transform import clone

#: ``label: (patch target, wrapped function)``: every place a job reaches
#: one of the walks through.
WALKS = {
    "Design.copy clone": ("repro.rtlir.design.clone", clone),
    "operand clone": ("repro.locking.base.clone", clone),
    "Design.sites": ("repro.rtlir.design.collect_sites", collect_sites),
    "opgraph collect_sites": ("repro.rtlir.opgraph.collect_sites",
                              collect_sites),
    "_find_cycle": ("repro.rtlir.opgraph._find_cycle", opgraph._find_cycle),
    "_kahn_order": ("repro.rtlir.opgraph._kahn_order", opgraph._kahn_order),
    "compile_plan (plan cache)": ("repro.sim.plan_cache.compile_plan",
                                  compile_plan),
    "compile_plan (simulator)": ("repro.sim.plan.passes.compile_plan",
                                 compile_plan),
}


def count_walks(run):
    """Run ``run()`` with every walk wrapped; return ``{label: calls}``."""
    with ExitStack() as stack:
        mocks = {label: stack.enter_context(mock.patch(target, wraps=fn))
                 for label, (target, fn) in WALKS.items()}
        run()
    return {label: wrapped.call_count for label, wrapped in mocks.items()}


@pytest.fixture
def empty_caches(monkeypatch):
    monkeypatch.setattr(runner, "_design_cache", OrderedDict())
    monkeypatch.setattr(runner, "_lock_cache", OrderedDict())
    clear_plan_cache()
    yield
    clear_plan_cache()


#: Walks of the SnapShot job, which loads, locks and attacks the cell.
#: The site walks: the base design's operation count, the lock session's
#: registry, ASSURE's dataflow graph and the training set's candidates.
ATTACK_WALKS = {
    "Design.copy clone": 1,
    "operand clone": 122,
    "Design.sites": 3,
    "opgraph collect_sites": 1,
    "_find_cycle": 0,
    "_kahn_order": 1,
    "compile_plan (plan cache)": 1,
    "compile_plan (simulator)": 0,
}

#: Walks of the metric job after it: the cell and its plan are cached.
METRIC_WALKS = dict.fromkeys(ATTACK_WALKS, 0)


def test_one_attack_and_one_metric_job_walk_the_cell_a_pinned_number_of_times(
        empty_caches):
    scenario = Scenario(
        name="walk-counts", benchmarks=("MD5",),
        lockers=(LockerSpec("assure"),),
        attacks=(AttackSpec("snapshot", rounds=4, time_budget=1.0,
                            functional_vectors=16),),
        metrics=(MetricSpec("corruption", {"vectors": 16, "wrong_keys": 2}),),
        samples=1, scale=0.3, seed=1)
    attack_job, metric_job = scenario.expand()
    assert (attack_job.kind, metric_job.kind) == ("attack", "metric")
    assert count_walks(lambda: execute_job(attack_job)) == ATTACK_WALKS
    assert count_walks(lambda: execute_job(metric_job)) == METRIC_WALKS


# ``benchmark`` would clash with the pytest-benchmark fixture name.
@pytest.mark.parametrize("design_name", benchmark_names())
def test_serial_order_searches_no_cycle(design_name):
    design = load_benchmark(design_name, scale=0.3, seed=1)
    budget = max(1, design.num_operations() // 2)
    walks = count_walks(lambda: AssureLocker(
        "serial", rng=random.Random(1)).lock(design, budget))
    assert walks["_find_cycle"] == 0


@pytest.mark.parametrize("design_name", benchmark_names())
def test_design_analysis_searches_no_cycle(design_name):
    design = load_benchmark(design_name, scale=0.3, seed=1)
    walks = count_walks(lambda: analyze_design(design))
    assert walks["_find_cycle"] == 0


def test_md5_analysis_takes_one_topological_order():
    # The acyclic view returns its order, so the depth does not sort again.
    design = load_benchmark("MD5", scale=1.0, seed=1)
    walks = count_walks(lambda: analyze_design(design))
    assert walks["_kahn_order"] == 1
