"""Sweep value-numbering in the executor: hoisted sweeps stay bit-identical.

``run_sweep`` must be indistinguishable from the per-key ``run_batch`` loop
whichever schedule the plan picks — hoisted (ERA-locked I2C_SL) or the flat
fallback (key-cone-dominated SASC and MD5) — for key sweeps, shared-key
(avalanche-shape) sweeps, binding sweeps and their combinations.  The
vectorised lane packers are pinned against their set-bit-loop counterparts
as well (the sweep packers in ``test_packers.py``).
"""

import random

import pytest

from repro.bench import load_benchmark, plus_network
from repro.locking import AssureLocker, ERALocker
from repro.sim import BatchSimulator, compile_plan, pack_values, unpack_values
from repro.sim.plan.executor import (
    _FAST_PACK_LANES,
    classify_steps,
    sweep_schedule,
)
from repro.sim.vectors import random_key, random_vector_batch
from repro.sim.evaluator import SimulationError, mask


def _locked(name="I2C_SL", algorithm="era", scale=0.25, seed=0):
    design = load_benchmark(name, scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    locker = ERALocker(rng=random.Random(seed), track_metrics=False) \
        if algorithm == "era" else \
        AssureLocker("serial", rng=random.Random(seed), track_metrics=False)
    return locker.lock(design, budget).design


def _hoists(plan, varying):
    """True when the sweep schedule for ``varying`` runs invariant steps."""
    return bool(sweep_schedule(plan, frozenset(varying)).invariant_steps)


class TestHoistedKeySweeps:
    @pytest.mark.parametrize("name,hoisted", [("I2C_SL", True),
                                              ("SASC", False),
                                              ("MD5", False)])
    def test_either_schedule_equals_loop(self, name, hoisted):
        locked = _locked(name)
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(1), 16)
        keys = [random_key(locked.key_width, random.Random(2))
                for _ in range(12)]
        swept = simulator.run_sweep(batch, keys=keys, n=16)
        loop = [simulator.run_batch(batch, key=key, n=16) for key in keys]
        assert swept == loop
        assert _hoists(simulator.plan, {locked.key_port}) is hoisted

    def test_default_is_the_hoisted_schedule(self):
        locked = _locked()
        plan = compile_plan(locked)
        simulator = BatchSimulator(locked, plan=plan)
        batch = simulator.random_batch(random.Random(3), 8)
        rng = random.Random(4)
        keys = [random_key(locked.key_width, rng) for _ in range(6)]
        swept = simulator.run_sweep(batch, keys=keys, n=8)
        assert list(plan._sweep_schedules) == [frozenset({locked.key_port})]
        assert plan.stats.invariant_steps > 0
        assert _hoists(plan, {locked.key_port})
        assert swept == [simulator.run_batch(batch, key=key, n=8)
                         for key in keys]

    def test_wide_sweep_exercises_fast_packers(self):
        """512 base lanes × 8 points crosses every vectorised threshold."""
        locked = _locked("SASC")
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(5), 512)
        keys = [random_key(locked.key_width, random.Random(6))
                for _ in range(8)]
        swept = simulator.run_sweep(batch, keys=keys, n=512)
        assert swept == [simulator.run_batch(batch, key=key, n=512)
                         for key in keys]


class TestSharedKeyAndBindingSweeps:
    def test_identical_keys_hoist_the_key_cone(self):
        """The avalanche shape: same key on every point, one probed input."""
        locked = _locked()
        simulator = BatchSimulator(locked)
        signals = [(name, simulator.width_of(name))
                   for name in simulator.input_names
                   if name != locked.key_port]
        probe = signals[0][0]
        context = random_vector_batch(signals[1:], random.Random(7), 8)
        bindings = [{probe: value} for value in (0, 1, 5, 255)]
        keys = [locked.correct_key] * len(bindings)
        swept = simulator.run_sweep(context, keys=keys, bindings=bindings,
                                    n=8)
        # The shared key is not a varying source: its cone is hoisted.
        assert list(simulator.plan._sweep_schedules) == [frozenset({probe})]
        assert _hoists(simulator.plan, {probe})
        for binding, outputs in zip(bindings, swept):
            batch = {**context, probe: [binding[probe]] * 8}
            assert outputs == simulator.run_batch(batch,
                                                  key=locked.correct_key,
                                                  n=8)

    def test_binding_sweep_on_unlocked_design(self):
        design = plus_network(24, n_inputs=4, name="plus_vn")
        simulator = BatchSimulator(design)
        base = simulator.random_batch(random.Random(8), 6)
        shared = {name: values for name, values in base.items()
                  if name != "in2"}
        bindings = [{"in2": 0}, {"in2": 9}, {}]
        swept = simulator.run_sweep(shared, bindings=bindings, n=6)
        for binding, outputs in zip(bindings, swept):
            value = binding.get("in2", 0)
            batch = {**shared, "in2": [value] * 6}
            assert outputs == simulator.run_batch(batch, n=6)

    def test_keys_and_bindings_combine_under_hoisting(self):
        locked = _locked("SASC")
        simulator = BatchSimulator(locked)
        data = [name for name in simulator.input_names
                if name != locked.key_port]
        swept = data[-1]
        base = simulator.random_batch(random.Random(9), 4)
        shared = {name: values for name, values in base.items()
                  if name != swept}
        keys = [random_key(locked.key_width, random.Random(10))
                for _ in range(3)]
        bindings = [{swept: 1}, {swept: 2}, {swept: 3}]
        swept_runs = simulator.run_sweep(shared, keys=keys,
                                         bindings=bindings, n=4)
        for key, binding, outputs in zip(keys, bindings, swept_runs):
            batch = {**shared, swept: [binding[swept]] * 4}
            assert outputs == simulator.run_batch(batch, key=key, n=4)


class TestScheduleAndClassifier:
    def test_classifier_respects_transitive_reads(self):
        locked = _locked()
        plan = compile_plan(locked)
        invariant, varying = classify_steps(plan.steps, plan.inputs,
                                            {locked.key_port})
        assert len(invariant) + len(varying) == len(plan.steps)
        names = {name for name in plan.inputs if name != locked.key_port}
        for step in invariant:
            assert set(step.reads) <= names
            names.add(step.target)
        # every varying step reads at least one point-varying name
        varying_names = {locked.key_port}
        for step in varying:
            assert set(step.reads) & varying_names
            varying_names.add(step.target)

    def test_schedules_are_cached_on_the_plan(self):
        locked = _locked()
        plan = compile_plan(locked)
        first = sweep_schedule(plan, frozenset({locked.key_port}))
        second = sweep_schedule(plan, frozenset({locked.key_port}))
        assert first is second
        other = sweep_schedule(plan, frozenset())
        assert other is not first and not other.varying_steps

    def test_key_cone_dominated_plan_falls_back_to_flat(self):
        """MD5's key cone covers nearly the whole plan: hoisting would only
        add bookkeeping, so the schedule degrades to the flat split."""
        locked = _locked("MD5")
        plan = compile_plan(locked)
        schedule = sweep_schedule(plan, frozenset({locked.key_port}))
        assert not schedule.invariant_steps

    def test_validation_errors_survive_hoisting(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(11), 4)
        with pytest.raises(SimulationError):
            simulator.run_sweep(batch, keys=[[2] * locked.key_width], n=4)
        with pytest.raises(SimulationError):
            simulator.run_sweep(batch, keys=[], n=4)
        with pytest.raises(SimulationError):
            simulator.run_sweep(batch,
                                bindings=[{locked.key_port: 1}], n=4)


class TestVectorisedPackers:
    @pytest.mark.parametrize("width", [1, 7, 8, 32, 63, 64])
    @pytest.mark.parametrize("lanes", [_FAST_PACK_LANES, 130, 513])
    def test_pack_unpack_roundtrip_fast_paths(self, width, lanes):
        rng = random.Random(width * lanes)
        values = [rng.getrandbits(width) for _ in range(lanes)]
        slices = pack_values(values, width)
        # fast path agrees with the set-bit loop on a sub-threshold chunk
        head = pack_values(values[:16], width)
        assert [word & 0xFFFF for word in slices] == head
        assert unpack_values(slices, lanes) == values

    def test_wide_values_use_the_loop_but_unpack_fast(self):
        rng = random.Random(0)
        values = [rng.getrandbits(70) for _ in range(200)]
        slices = pack_values(values, 70)  # width > 64: set-bit loop
        assert unpack_values(slices, 200) == values  # fast path, 2 words

    def test_negative_and_overwide_values_are_masked(self):
        values = [-1, 1 << 70] + [5] * (_FAST_PACK_LANES - 2)
        slices = pack_values(values, 8)
        assert unpack_values(slices, len(values))[:2] \
            == [mask(-1, 8), mask(1 << 70, 8)]
