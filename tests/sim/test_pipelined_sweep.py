"""Memory-bounded (chunked) sweeps: tiling must be invisible in results.

``max_lanes`` caps the packed lane width of ``run_sweep``/``run_batch``
(without it, the plan's own cap :func:`auto_max_lanes` applies); the
executor splits the S sweep points into point tiles and streams each tile
through the varying steps.  Because the bit-slice kernels never mix bits
across lanes, every tiling — single-point tiles, ragged last tiles, no
chunking at all — must be *bit-identical* to the unchunked evaluation, for
both the hoisted schedule and the flat fallback the plan may pick.
"""

import contextlib
import random
from unittest import mock

import pytest

from repro.bench import load_benchmark, plus_network
from repro.locking import AssureLocker, ERALocker, flip_bits
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    DEFAULT_LANE_BITS_BUDGET,
    SimulationError,
    auto_max_lanes,
    batch_to_vectors,
    cached_simulator,
    compile_plan,
    get_plan,
    plan_lane_bits,
    random_input_batch,
    random_key,
    sweep_differences,
)
from repro.sim.plan import executor
from repro.sim.plan.executor import sweep_schedule

#: Lane caps exercised against 12 points x 8 base lanes (96 lanes total):
#: single-point tiles, a ragged last tile (5+5+2 points), and a cap far above
#: the sweep (no chunking; the tiled path must still not engage).
BASE = 8
POINTS = 12
LANE_CAPS = [BASE, 5 * BASE, 1 << 30]


def _locked(algorithm="era", name="MD5", seed=0, scale=0.15):
    design = load_benchmark(name, scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    locker = AssureLocker("serial", rng=random.Random(seed),
                          track_metrics=False) if algorithm == "assure" \
        else ERALocker(rng=random.Random(seed), track_metrics=False)
    return locker.lock(design, budget).design


def _random_keys(width, count, seed):
    rng = random.Random(seed)
    return [random_key(width, rng) for _ in range(count)]


#: A design whose key sweep hoists invariant steps (and the ``data_out``
#: output), and one whose key cone makes the plan fall back to flat.
SCHEDULES = [("I2C_SL", "era", True), ("MD5", "assure", False)]


def _scheduled(name, algorithm, hoisted):
    """The locked design, checked to sweep on the expected schedule."""
    locked = _locked(algorithm=algorithm, name=name, scale=0.25)
    schedule = sweep_schedule(get_plan(locked), frozenset({locked.key_port}))
    assert bool(schedule.invariant_steps) is hoisted
    return locked


def _plan_cap(plan, lanes):
    """Shrink the lane-bits budget so ``plan``'s own cap is ``lanes``."""
    return mock.patch.object(executor, "DEFAULT_LANE_BITS_BUDGET",
                             lanes * plan_lane_bits(plan))


@contextlib.contextmanager
def _recorded_tiles():
    """Record the point range ``(first, last)`` of every executed tile."""
    execute_tile = BatchSimulator._execute_tile
    tiles = []

    def spy(self, sweep, first, last, replicate):
        tiles.append((first, last))
        return execute_tile(self, sweep, first, last, replicate)

    with mock.patch.object(BatchSimulator, "_execute_tile", spy):
        yield tiles


class TestChunkedBitIdentity:
    """Chunked == unchunked, across hoisting and tilings."""

    @pytest.mark.parametrize("max_lanes", LANE_CAPS)
    def test_key_sweep_matrix(self, max_lanes):
        locked = _locked(algorithm="era")
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(1), BASE)
        keys = _random_keys(locked.key_width, POINTS, seed=2)
        reference = simulator.run_sweep(batch, keys=keys, n=BASE)
        chunked = simulator.run_sweep(batch, keys=keys, n=BASE,
                                      max_lanes=max_lanes)
        assert chunked == reference

    @pytest.mark.parametrize("schedule", SCHEDULES,
                             ids=["hoisted", "flat"])
    @pytest.mark.parametrize("max_lanes", LANE_CAPS)
    def test_hoisted_and_flat_schedules(self, schedule, max_lanes):
        locked = _scheduled(*schedule)
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(3), BASE)
        keys = _random_keys(locked.key_width, POINTS, seed=4)
        chunked = simulator.run_sweep(batch, keys=keys, n=BASE,
                                      max_lanes=max_lanes)
        assert chunked == [simulator.run_batch(batch, key=key, n=BASE)
                           for key in keys]

    @pytest.mark.parametrize("max_lanes", LANE_CAPS)
    def test_bindings_and_shared_key(self, max_lanes):
        locked = _locked()
        simulator = BatchSimulator(locked)
        data = [name for name in simulator.input_names
                if name != locked.key_port]
        swept_name = data[0]
        base = simulator.random_batch(random.Random(5), BASE)
        shared = {name: values for name, values in base.items()
                  if name != swept_name}
        bindings = [{swept_name: point % 4} for point in range(POINTS)]
        # Shared key (every point uses the same key -> block-width broadcast)
        shared_key = [locked.correct_key] * POINTS
        reference = simulator.run_sweep(shared, keys=shared_key,
                                        bindings=bindings, n=BASE)
        chunked = simulator.run_sweep(shared, keys=shared_key,
                                      bindings=bindings, n=BASE,
                                      max_lanes=max_lanes)
        assert chunked == reference
        # Per-point keys combined with bindings
        keys = _random_keys(locked.key_width, POINTS, seed=6)
        reference = simulator.run_sweep(shared, keys=keys,
                                        bindings=bindings, n=BASE)
        chunked = simulator.run_sweep(shared, keys=keys, bindings=bindings,
                                      n=BASE, max_lanes=max_lanes)
        assert chunked == reference

    def test_ragged_last_tile_against_per_key_loop(self):
        locked = _locked(algorithm="era")
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(7), BASE)
        keys = _random_keys(locked.key_width, 7, seed=8)
        # 3-point tiles over 7 points: tiles of 3, 3, and 1.
        swept = simulator.run_sweep(batch, keys=keys, n=BASE,
                                    max_lanes=3 * BASE)
        loop = [simulator.run_batch(batch, key=key, n=BASE) for key in keys]
        assert swept == loop

    def test_run_batch_chunking(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(9), 10)
        (key,) = _random_keys(locked.key_width, 1, seed=10)
        reference = simulator.run_batch(batch, key=key, n=10)
        for cap in (1, 3, 4, 10, 1 << 30):
            assert simulator.run_batch(batch, key=key, n=10,
                                       max_lanes=cap) == reference


class TestOutputKeyOrder:
    """Regression: result dicts follow ``plan.outputs`` order on every path.

    Before the fix, only sweeps with hoisted invariant outputs normalised
    their key order; flat schedules returned varying-first dicts.
    """

    @pytest.mark.parametrize("schedule", SCHEDULES,
                             ids=["hoisted", "flat"])
    def test_result_keys_match_plan_outputs(self, schedule):
        locked = _scheduled(*schedule)
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(11), 4)
        keys = _random_keys(locked.key_width, 3, seed=12)
        for point in simulator.run_sweep(batch, keys=keys, n=4):
            assert list(point) == list(simulator.plan.outputs)

    def test_key_order_identical_across_paths(self):
        locked = _scheduled(*SCHEDULES[0])
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(13), 4)
        keys = _random_keys(locked.key_width, 3, seed=14)
        orders = set()
        for max_lanes in (None, BASE):
            for point in simulator.run_sweep(batch, keys=keys, n=4,
                                             max_lanes=max_lanes):
                orders.add(tuple(point))
        assert orders == {tuple(simulator.plan.outputs)}


class TestLaneLimitResolution:
    """An explicit ``max_lanes`` wins; otherwise the plan's cap applies."""

    def test_rejects_nonpositive_cap(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(15), 4)
        keys = _random_keys(locked.key_width, 2, seed=16)
        with pytest.raises(SimulationError):
            simulator.run_sweep(batch, keys=keys, n=4, max_lanes=0)
        with pytest.raises(SimulationError):
            simulator.run_batch(batch, key=locked.correct_key, n=4,
                                max_lanes=-1)

    def test_auto_cap_scales_with_plan_width(self):
        locked = _locked()
        plan = compile_plan(locked)
        bits = plan_lane_bits(plan)
        assert bits >= 1
        assert auto_max_lanes(plan) == max(1, DEFAULT_LANE_BITS_BUDGET // bits)
        # The cap never tiles below one point: base is the floor.
        assert auto_max_lanes(plan, base=1 << 40) == 1 << 40

    def test_unscoped_sweep_is_tiled_at_the_plan_cap(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(17), BASE)
        keys = _random_keys(locked.key_width, POINTS, seed=18)
        reference = simulator.run_sweep(batch, keys=keys, n=BASE)
        counted = simulator.sweep_differences(batch, keys=keys, n=BASE)
        with _plan_cap(simulator.plan, 3 * BASE), _recorded_tiles() as tiles:
            assert simulator.run_sweep(batch, keys=keys, n=BASE) == reference
            assert tiles == [(0, 3), (3, 6), (6, 9), (9, 12)]
            tiles.clear()
            assert simulator.sweep_differences(batch, keys=keys,
                                               n=BASE) == counted
            assert tiles == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_explicit_arg_overrides_plan_cap(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(19), BASE)
        keys = _random_keys(locked.key_width, POINTS, seed=20)
        reference = simulator.run_sweep(batch, keys=keys, n=BASE)
        with _plan_cap(simulator.plan, BASE), _recorded_tiles() as tiles:
            assert simulator.run_sweep(batch, keys=keys, n=BASE,
                                       max_lanes=1 << 30) == reference
        assert tiles == [(0, POINTS)]


class TestConsumerThreading:
    """The plan's cap reaches sweeps made through the high-level helpers,
    which take no lane argument of their own."""

    def test_sweep_helper(self):
        locked = _locked(algorithm="era")
        batch = random_input_batch(locked, random.Random(21), BASE)
        keys = [locked.correct_key] + _random_keys(locked.key_width,
                                                   POINTS - 1, 22)
        reference = sweep_differences(locked, batch, keys=keys, n=BASE)
        scalar = CombinationalSimulator(locked)
        vectors = batch_to_vectors(batch, BASE)
        loop = []
        for key in keys:
            rows = [scalar.run(vector, key=key) for vector in vectors]
            loop.append({name: [row[name] for row in rows]
                         for name in scalar.output_names})
        with _plan_cap(get_plan(locked), 3 * BASE), \
                _recorded_tiles() as tiles:
            assert cached_simulator(locked).run_sweep(
                batch, keys=keys, n=BASE) == loop
            assert sweep_differences(locked, batch, keys=keys,
                                     n=BASE) == reference
        assert tiles == [(0, 3), (3, 6), (6, 9), (9, 12)] * 2

    def test_functional_kpa(self):
        from repro.attacks.kpa import functional_kpa

        # Single-bit flips score anywhere from 0 to 100; a 16-lane cap puts
        # the correct key and the candidate in separate tiles.
        locked = _locked(algorithm="era")
        keys = [flip_bits(locked.correct_key, [bit])
                for bit in range(locked.key_width)]
        reference = [functional_kpa(locked, key, vectors=16,
                                    rng=random.Random(24)) for key in keys]
        with _plan_cap(get_plan(locked), 16), _recorded_tiles() as tiles:
            chunked = [functional_kpa(locked, key, vectors=16,
                                      rng=random.Random(24)) for key in keys]
        assert chunked == reference
        assert tiles == [(0, 1), (1, 2)] * len(keys)

    def test_metrics_accept_max_lanes(self):
        from repro.locking.metrics import (functional_corruption,
                                           key_bit_sensitivity)

        locked = _locked(algorithm="era")
        reference = functional_corruption(locked, vectors=16, wrong_keys=6,
                                          rng=random.Random(25))
        with _plan_cap(get_plan(locked), 32):
            chunked = functional_corruption(locked, vectors=16,
                                            wrong_keys=6,
                                            rng=random.Random(25))
        assert chunked == reference
        reference = key_bit_sensitivity(locked, vectors=16,
                                        rng=random.Random(26))
        with _plan_cap(get_plan(locked), 32):
            chunked = key_bit_sensitivity(locked, vectors=16,
                                          rng=random.Random(26))
        assert chunked == reference

    def test_unlocked_sweep_with_bindings_chunks(self):
        design = plus_network(16, n_inputs=4, name="plus16c")
        simulator = BatchSimulator(design)
        base = simulator.random_batch(random.Random(27), 6)
        shared = {name: values for name, values in base.items()
                  if name != "in0"}
        bindings = [{"in0": value} for value in range(5)]
        reference = simulator.run_sweep(shared, bindings=bindings, n=6)
        assert simulator.run_sweep(shared, bindings=bindings, n=6,
                                   max_lanes=12) == reference


#: Peak-memory budget of one ``key_bit_sensitivity`` call on ERA-locked MD5
#: (scale 1.0, 2048 vectors: 205 sweep points of 2048 lanes).  Measured
#: tracemalloc peaks: 30.5 MiB when swept keys were packed through a
#: one-byte-per-lane bit array and tiles held every step's value, 23.7 MiB
#: with byte-block key packing alone, 7.1 MiB with byte-block packing and
#: each value dropped after its last reader — so each half of that change
#: is needed to pass.
KEY_SENSITIVITY_MEMORY_BUDGET_BYTES = 12 * 1024 * 1024


def test_key_sensitivity_sweep_holds_only_live_values():
    """A wide metric sweep's peak is its live set, not every step's value."""
    import tracemalloc

    from repro.locking.metrics import key_bit_sensitivity

    locked = _locked(algorithm="era", scale=1.0)
    # Compile and cache the plan outside the measured call.
    key_bit_sensitivity(locked, vectors=16, rng=random.Random(0))
    tracemalloc.start()
    try:
        per_bit = key_bit_sensitivity(locked, vectors=2048,
                                      rng=random.Random(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(per_bit) == locked.key_width
    assert peak <= KEY_SENSITIVITY_MEMORY_BUDGET_BYTES, (
        f"key-sensitivity sweep peaked at {peak / 2**20:.1f} MiB, over the "
        f"{KEY_SENSITIVITY_MEMORY_BUDGET_BYTES / 2**20:.0f} MiB budget")
