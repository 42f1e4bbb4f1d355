"""Per-lane sweep API: one pass over N (key, input) points, loop semantics.

``run_sweep`` must be indistinguishable from the per-key ``run_batch`` loop
it replaces, point for point and bit for bit, and from a scalar loop
(``CombinationalSimulator.run`` per key, per vector); ``sweep_differences``
must hide the engine — a design the plan compiler rejects falls back to the
scalar engine with the same counts.
"""

import random

import pytest

from repro.bench import load_benchmark, plus_network
from repro.locking import AssureLocker, ERALocker
from repro.rtlir import Design, KeyBit
from repro.sim import (
    BatchCompileError,
    BatchSimulator,
    CombinationalSimulator,
    SimulationError,
    batch_to_vectors,
    differing_lanes,
    random_input_batch,
    random_key,
    sweep_differences,
)


def _locked(name="MD5", algorithm="assure", seed=0, scale=0.15):
    design = load_benchmark(name, scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    locker = AssureLocker("serial", rng=random.Random(seed),
                          track_metrics=False) if algorithm == "assure" \
        else ERALocker(rng=random.Random(seed), track_metrics=False)
    return locker.lock(design, budget).design


def _random_keys(width, count, seed):
    rng = random.Random(seed)
    return [random_key(width, rng) for _ in range(count)]


class TestRunSweep:
    @pytest.mark.parametrize("algorithm", ["assure", "era"])
    def test_equals_per_key_batch_loop(self, algorithm):
        locked = _locked(algorithm=algorithm)
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(1), 16)
        keys = _random_keys(locked.key_width, 12, seed=2)
        swept = simulator.run_sweep(batch, keys=keys, n=16)
        loop = [simulator.run_batch(batch, key=key, n=16) for key in keys]
        assert swept == loop

    def test_equals_scalar_oracle(self):
        locked = _locked(algorithm="era")
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(3), 8)
        keys = [locked.correct_key] + _random_keys(locked.key_width, 5, 4)
        swept = simulator.run_sweep(batch, keys=keys, n=8)
        assert swept == _scalar_sweep(locked, batch, keys, 8)

    def test_single_point_equals_run_batch(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(5), 4)
        key = locked.correct_key
        (point,) = simulator.run_sweep(batch, keys=[key], n=4)
        assert point == simulator.run_batch(batch, key=key, n=4)

    def test_input_bindings_broadcast_per_point(self):
        design = plus_network(16, n_inputs=4, name="plus16")
        simulator = BatchSimulator(design)
        base = simulator.random_batch(random.Random(6), 6)
        shared = {name: values for name, values in base.items()
                  if name != "in0"}
        bindings = [{"in0": 0}, {"in0": 7}, {}]
        swept = simulator.run_sweep(shared, bindings=bindings, n=6)
        for binding, outputs in zip(bindings, swept):
            value = binding.get("in0", 0)
            expected = simulator.run_batch({**shared, "in0": [value] * 6}, n=6)
            assert outputs == expected

    def test_keys_and_bindings_combine(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        data = [name for name in simulator.input_names
                if name != locked.key_port]
        swept_name = data[0]
        base = simulator.random_batch(random.Random(7), 4)
        shared = {name: values for name, values in base.items()
                  if name != swept_name}
        keys = _random_keys(locked.key_width, 3, 8)
        bindings = [{swept_name: 1}, {swept_name: 2}, {swept_name: 3}]
        swept = simulator.run_sweep(shared, keys=keys, bindings=bindings, n=4)
        for key, binding, outputs in zip(keys, bindings, swept):
            batch = {**shared, swept_name: [binding[swept_name]] * 4}
            assert outputs == simulator.run_batch(batch, key=key, n=4)

    def test_rejects_invalid_key_bits(self):
        locked = _locked()
        simulator = BatchSimulator(locked)
        batch = simulator.random_batch(random.Random(13), 2)
        bad = [[2] * locked.key_width]
        with pytest.raises(SimulationError):
            simulator.run_sweep(batch, keys=bad, n=2)


# ---------------------------------------------------------------------------
# The scalar oracle and the scalar fallback of sweep_differences
# ---------------------------------------------------------------------------


def _scalar_sweep(design, batch, keys, n):
    """``CombinationalSimulator.run`` per key, per vector, as sweep results."""
    simulator = CombinationalSimulator(design)
    vectors = batch_to_vectors(batch, n)
    results = []
    for key in keys:
        rows = [simulator.run(vector, key=key) for vector in vectors]
        results.append({name: [row[name] for row in rows]
                        for name in simulator.output_names})
    return results


def _uncompilable_locked_design():
    """A locked design the plan compiler rejects (dynamic replication)."""
    design = Design.from_verilog("""
    module oddball (input [3:0] a, input [1:0] n, input [1:0] lock_key,
                    output [7:0] y, output [3:0] z);
      wire [3:0] t = lock_key[0] ? (a + 1) : (a - 1);
      assign y = {n{a}};
      assign z = lock_key[1] ? t : (t ^ 4'b0101);
    endmodule
    """)
    design.key_port = "lock_key"
    design.key_bits = [
        KeyBit(index=0, kind="operation", correct_value=1),
        KeyBit(index=1, kind="operation", correct_value=0),
    ]
    return design


class TestScalarOracle:
    def test_run_sweep_equals_scalar_loop(self):
        locked = _locked(algorithm="assure")
        batch = random_input_batch(locked, random.Random(20), 10)
        keys = [locked.correct_key] + _random_keys(locked.key_width, 4, 21)
        swept = BatchSimulator(locked).run_sweep(batch, keys=keys, n=10)
        assert swept == _scalar_sweep(locked, batch, keys, 10)

    def test_scalar_fallback_on_uncompilable_design(self):
        locked = _uncompilable_locked_design()
        with pytest.raises(BatchCompileError):
            BatchSimulator(locked)
        batch = random_input_batch(locked, random.Random(22), 6)
        keys = [[1, 0], [0, 1], [1, 1]]
        counted = sweep_differences(locked, batch, keys=keys, n=6)
        assert counted == sweep_differences(locked, batch, keys=keys, n=6,
                                            engine="scalar")
        reference, *others = _scalar_sweep(locked, batch, keys, 6)
        assert counted.lanes == [len(differing_lanes(reference, outputs))
                                 for outputs in others]
        assert all(counted.lanes)
