"""The compare-only sweep: counting on slice words changes speed, not numbers.

``BatchSimulator.sweep_differences`` never unpacks a lane: it XORs every
tile's output slices against point 0's and popcounts them per point block.
Its counts must equal what the value path gives — ``run_sweep``, then
``differing_lanes`` and the per-lane ``bit_count`` of the XOR against
point 0 — for every tiling, key and binding sweeps, hoisted outputs,
and base widths that are and are not whole bytes.  The
module-level :func:`repro.sim.sweep_differences` must give the same counts
on its scalar engine, which is also the fallback for uncompilable designs.
"""

import contextlib
import random
from unittest import mock

import pytest

from repro.bench import load_benchmark
from repro.locking import ERALocker, flip_bits
from repro.rtlir import Design, KeyBit
from repro.sim import (
    BatchSimulator,
    SimulationError,
    SweepDifferences,
    differing_lanes,
    plan_lane_bits,
    random_input_batch,
    random_key,
    sweep_differences,
)
from repro.sim.plan import executor
from repro.sim.plan.executor import _block_comb, _replicate, sweep_schedule
from tests.attacks.test_sweep_regression import _oddball_locked

#: Base widths: whole bytes (byte-repeat tiling, byte popcounts) and not.
BASES = [64, 100, 33]

POINTS = 7

#: Lane caps in points: the plan's default cap (one tile), one-point tiles,
#: and 3-point tiles (a ragged last tile of one point over 7 points).
LANE_CAPS = [None, 1, 3]

#: Two outputs; with a shared key and ``a`` bound per point, ``y`` reads
#: neither and is hoisted out of the sweep.
SPLIT = """
module split (input [7:0] a, input [7:0] b, input [1:0] lock_key,
              output [8:0] x, output [7:0] y);
  assign x = lock_key[0] ? (a + b) : (a - b);
  assign y = lock_key[1] ? (b ^ 8'h5a) : (b + 8'd1);
endmodule
"""


def _locked_md5(seed=0, scale=0.15):
    design = load_benchmark("MD5", scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    return ERALocker(rng=random.Random(seed),
                     track_metrics=False).lock(design, budget).design


def _split_locked():
    design = Design.from_verilog(SPLIT)
    design.key_port = "lock_key"
    design.key_bits = [
        KeyBit(index=0, kind="operation", correct_value=1),
        KeyBit(index=1, kind="operation", correct_value=0),
    ]
    return design


def _expected(runs, base):
    """Reference counts from the unpacked values of ``run_sweep``."""
    reference, *others = runs
    lanes, bits = [], []
    for run in others:
        differing = differing_lanes(reference, run, n=base)
        lanes.append(len(differing))
        bits.append(sum((reference[name][lane] ^ run[name][lane]).bit_count()
                        for lane in differing for name in reference))
    return lanes, bits


def _assert_matches(simulator, base, lane_cap, **sweep):
    # A lane cap of ``lane_cap`` points: the lane-bits budget shrunk so the
    # plan's own cap is that many points' lanes.
    budget = contextlib.nullcontext() if lane_cap is None else \
        mock.patch.object(executor, "DEFAULT_LANE_BITS_BUDGET",
                          lane_cap * base * plan_lane_bits(simulator.plan))
    with budget:
        runs = simulator.run_sweep(n=base, **sweep)
        counted = simulator.sweep_differences(n=base, **sweep)
    assert counted.outputs == tuple(simulator.output_names)
    assert (counted.lanes, counted.bits) == _expected(runs, base)
    return counted


class TestReplicate:
    @pytest.mark.parametrize("base", [8, 64, 100, 33, 1])
    @pytest.mark.parametrize("points", [1, 2, 7, 64])
    def test_equals_comb_multiply(self, base, points):
        rng = random.Random(base * 1000 + points)
        comb = ((1 << base * points) - 1) // ((1 << base) - 1)
        for word in (0, 1, (1 << base) - 1, rng.getrandbits(base)):
            assert _replicate(word, base, points) == word * comb
            assert _block_comb(base, points) == comb


class TestKeySweeps:
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_tilings(self, lane_cap):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        rng = random.Random(1)
        batch = simulator.random_batch(rng, 64)
        keys = [locked.correct_key] + [random_key(locked.key_width, rng)
                                       for _ in range(POINTS - 1)]
        counted = _assert_matches(simulator, 64, lane_cap, inputs=batch,
                                  keys=keys)
        assert len(counted.lanes) == POINTS - 1
        assert any(counted.bits)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_base_widths(self, base, lane_cap):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        rng = random.Random(base)
        batch = simulator.random_batch(rng, base)
        keys = [random_key(locked.key_width, rng) for _ in range(POINTS)]
        _assert_matches(simulator, base, lane_cap, inputs=batch, keys=keys)

    def test_identical_keys_differ_nowhere(self):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(2), 64)
        counted = simulator.sweep_differences(
            batch, keys=[locked.correct_key] * POINTS, n=64)
        assert counted == SweepDifferences(tuple(simulator.output_names),
                                           [0] * (POINTS - 1),
                                           [0] * (POINTS - 1))

    def test_single_point_has_nothing_to_compare(self):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(3), 64)
        counted = simulator.sweep_differences(
            batch, keys=[locked.correct_key], n=64)
        assert counted.lanes == [] and counted.bits == []


class TestBindingSweeps:
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_shared_key_hoists_outputs(self, base, lane_cap):
        locked = _split_locked()
        simulator = BatchSimulator(locked)
        schedule = sweep_schedule(simulator.plan, frozenset({"a"}))
        assert schedule.invariant_outputs == ("y",)
        rng = random.Random(base)
        batch = {"b": [rng.getrandbits(8) for _ in range(base)]}
        bindings = [{"a": rng.getrandbits(8)} for _ in range(POINTS)]
        _assert_matches(simulator, base, lane_cap, inputs=batch,
                        keys=[locked.correct_key] * POINTS,
                        bindings=bindings)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_bindings_with_per_point_keys(self, base, lane_cap):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        data = [name for name in simulator.input_names
                if name != locked.key_port]
        swept = data[0]
        rng = random.Random(base + 1)
        batch = {name: values for name, values
                 in simulator.random_batch(rng, base).items()
                 if name != swept}
        bindings = [{swept: rng.getrandbits(simulator.width_of(swept))}
                    for _ in range(POINTS)]
        keys = [random_key(locked.key_width, rng) for _ in range(POINTS)]
        _assert_matches(simulator, base, lane_cap, inputs=batch, keys=keys,
                        bindings=bindings)
        _assert_matches(simulator, base, lane_cap, inputs=batch,
                        keys=[locked.correct_key] * POINTS,
                        bindings=bindings)


class TestEntryPoint:
    """``repro.sim.sweep_differences``: both engines, one set of counts."""

    @pytest.mark.parametrize("base", BASES)
    def test_scalar_engine_matches_batch(self, base):
        locked = _locked_md5()
        rng = random.Random(base + 2)
        batch = random_input_batch(locked, rng, base)
        keys = [random_key(locked.key_width, rng) for _ in range(4)]
        fast = sweep_differences(locked, batch, keys=keys, n=base)
        slow = sweep_differences(locked, batch, keys=keys, n=base,
                                 engine="scalar")
        assert fast == slow

    def test_scalar_engine_supports_bindings(self):
        locked = _split_locked()
        rng = random.Random(4)
        batch = {"b": [rng.getrandbits(8) for _ in range(33)]}
        bindings = [{"a": value} for value in (0, 1, 128, 255)]
        keys = [locked.correct_key, [0, 0], [1, 1], [0, 1]]
        fast = sweep_differences(locked, batch, keys=keys,
                                 bindings=bindings, n=33)
        slow = sweep_differences(locked, batch, keys=keys,
                                 bindings=bindings, n=33, engine="scalar")
        assert fast == slow
        assert any(fast.bits)

    def test_uncompilable_design_takes_the_scalar_path(self):
        locked = _oddball_locked()
        rng = random.Random(5)
        batch = random_input_batch(locked, rng, 24)
        correct = locked.correct_key
        keys = [correct, flip_bits(correct, [0]), flip_bits(correct, [1]),
                flip_bits(correct, [0, 1])]
        counted = sweep_differences(locked, batch, keys=keys, n=24)
        scalar = sweep_differences(locked, batch, keys=keys, n=24,
                                   engine="scalar")
        assert counted == scalar
        assert counted.outputs == ("y", "z")
        assert all(lanes > 0 for lanes in counted.lanes)

    def test_rejects_bad_requests(self):
        locked = _locked_md5()
        batch = random_input_batch(locked, random.Random(6), 8)
        with pytest.raises(ValueError):
            sweep_differences(locked, batch, keys=[locked.correct_key],
                              engine="turbo")
        unlocked = load_benchmark("MD5", scale=0.15, seed=0)
        for engine in ("batch", "scalar"):
            with pytest.raises(SimulationError):
                sweep_differences(unlocked, batch, keys=[[0]], n=8,
                                  engine=engine)
            with pytest.raises(SimulationError):
                sweep_differences(locked, batch, n=8, engine=engine)
