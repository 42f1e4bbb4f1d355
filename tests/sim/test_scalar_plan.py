"""The scalar AST walker against the plan-compiled bit-parallel engine.

The scalar :class:`CombinationalSimulator` shares no code with compiled
plans, so it is the independent oracle: *scalar* == *run_batch* ==
*run_sweep* on locked designs, and both engines reject the same bad inputs.
The fixture-profile cross-check lives in ``test_cse.py``.
"""

import random

import pytest

from repro.bench import load_benchmark, plus_network
from repro.locking import AssureLocker, ERALocker
from repro.rtlir import Design, KeyBit
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    SimulationError,
    batch_to_vectors,
    random_input_batch,
    random_key,
)


class TestThreeWayAgreement:
    @pytest.mark.parametrize("algorithm", ["assure", "era"])
    def test_locked_designs_under_random_keys(self, algorithm):
        design = load_benchmark("SASC", scale=0.2, seed=0)
        budget = max(1, int(0.75 * design.num_operations()))
        locker = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False) if algorithm == "assure" \
            else ERALocker(rng=random.Random(0), track_metrics=False)
        locked = locker.lock(design, budget).design
        scalar = CombinationalSimulator(locked)
        batch = BatchSimulator(locked)
        rng = random.Random(2)
        keys = [locked.correct_key, random_key(locked.key_width, rng),
                random_key(locked.key_width, rng)]
        inputs = random_input_batch(locked, rng, 4)
        swept = batch.run_sweep(inputs, keys=keys, n=4)
        for key, sweep_outputs in zip(keys, swept):
            batched = batch.run_batch(inputs, key=key, n=4)
            assert sweep_outputs == batched
            for lane, vector in enumerate(batch_to_vectors(inputs, 4)):
                for name, value in scalar.run(vector, key=key).items():
                    assert batched[name][lane] == value

    def test_key_defaults_to_zero_in_both_modes(self):
        design = load_benchmark("SASC", scale=0.2, seed=0)
        budget = max(1, int(0.5 * design.num_operations()))
        locked = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False).lock(design,
                                                        budget).design
        scalar = CombinationalSimulator(locked)
        (vector,) = batch_to_vectors(
            random_input_batch(locked, random.Random(3), 1), 1)
        zeros = [0] * locked.key_width
        assert scalar.run(vector) == scalar.run(vector, key=zeros)
        assert BatchSimulator(locked).run(vector) == scalar.run(vector)


class TestFallbackAndErrors:
    def test_unknown_input_rejected_in_both_modes(self):
        design = plus_network(8, n_inputs=4, name="plus_err")
        with pytest.raises(SimulationError):
            CombinationalSimulator(design).run({"zz": 1})
        with pytest.raises(SimulationError):
            BatchSimulator(design).run({"zz": 1})

    def test_invalid_key_bits_rejected_in_both_modes(self):
        design = Design.from_verilog("""
        module locked1 (input [3:0] a, input lock_key, output [3:0] y);
          assign y = lock_key ? (a + 1) : (a - 1);
        endmodule
        """)
        design.key_port = "lock_key"
        design.key_bits = [KeyBit(index=0, kind="operation",
                                  correct_value=1)]
        with pytest.raises(SimulationError):
            CombinationalSimulator(design).run({"a": 1}, key=[2])
        with pytest.raises(SimulationError):
            BatchSimulator(design).run({"a": 1}, key=[2])

    def test_dependency_cycle_detected_at_init_in_both_modes(self):
        source = """
        module loop (input [3:0] a, output [3:0] y);
          wire [3:0] u;
          wire [3:0] v = u + a;
          assign u = v + 1;
          assign y = v;
        endmodule
        """
        with pytest.raises(SimulationError):
            CombinationalSimulator(Design.from_verilog(source))
        with pytest.raises(SimulationError):
            BatchSimulator(Design.from_verilog(source))
