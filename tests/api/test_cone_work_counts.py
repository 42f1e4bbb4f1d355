"""How many plan steps one key-sensitivity job runs, pinned as counts.

A key-sensitivity job flips each key bit of the locked cell in turn and
counts the vectors whose outputs change.  It runs the cell's whole plan
once under the all-zero key, then, per flipped bit, the steps of that
bit's fan-out cone whose inputs the flip changed (``key_cones``): a cone
step that reads only unchanged values would recompute its base value.
Re-running such a step costs time that hides in the noise of a shared
host; a count does not.  The counts below are those of one job on MD5 at
scale 0.3, run through ``execute_job`` with empty caches, next to the
cones' static size (every step of every cone, each once), which is what
a walk that skips nothing runs.
"""

from collections import OrderedDict
from unittest import mock

import pytest

from repro.api import LockerSpec, MetricSpec, Scenario, execute_job
from repro.api import runner
from repro.sim import clear_plan_cache
from repro.sim.plan.executor import key_cones
from repro.sim.plan.passes import compile_plan


@pytest.fixture
def empty_caches(monkeypatch):
    monkeypatch.setattr(runner, "_design_cache", OrderedDict())
    monkeypatch.setattr(runner, "_lock_cache", OrderedDict())
    clear_plan_cache()
    yield
    clear_plan_cache()


def counting_compile(plans, calls):
    """``compile_plan`` whose plans count every step they run in ``calls``."""
    def compile_counted(design):
        plan = compile_plan(design)
        for step in plan.steps:
            def counted(env, full, fn=step.fn):
                calls[0] += 1
                return fn(env, full)
            step.fn = counted
        plans.append(plan)
        return plan
    return compile_counted


#: Per locker: (plan steps, cone steps the job runs, the cones' size).
CONE_WORK = {
    "era": (48, 207, 324),
    "assure": (43, 544, 545),
}


@pytest.mark.parametrize("locker", sorted(CONE_WORK))
def test_one_key_sensitivity_job_runs_a_pinned_number_of_cone_steps(
        empty_caches, locker):
    scenario = Scenario(
        name="cone-work", benchmarks=("MD5",), lockers=(LockerSpec(locker),),
        metrics=(MetricSpec("key-sensitivity", {"vectors": 256}),),
        samples=1, scale=0.3, seed=1)
    (job,) = scenario.expand()
    plans, calls = [], [0]
    with mock.patch("repro.sim.plan_cache.compile_plan",
                    counting_compile(plans, calls)):
        execute_job(job)
    (plan,) = plans
    # The base pass runs every step once; the rest is cone work.
    steps = len(plan.steps)
    size = sum(len(cone) for cone in key_cones(plan).steps)
    assert (steps, calls[0] - steps, size) == CONE_WORK[locker]
