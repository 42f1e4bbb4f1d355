"""Tests for the combinational simulator and the locking functional contract."""

import random

import pytest

from repro.api import locker_names, make_locker
from repro.bench import plus_network, profile_design
from repro.bench.profiles import BenchmarkProfile
from repro.locking import AssureLocker, ERALocker, HRALocker, flip_bits
from repro.rtlir import Design
from repro.sim import (
    CombinationalSimulator,
    SimulationError,
    check_equivalence,
    output_corruption,
)

ADDER_SOURCE = """
module adder (
  input [7:0] a,
  input [7:0] b,
  input [7:0] c,
  output [7:0] sum,
  output [7:0] mixed,
  output gt
);
  wire [7:0] s0 = a + b;
  wire [7:0] s1 = s0 + c;
  assign sum = s1;
  assign mixed = (s0 ^ c) & 8'h7F;
  assign gt = a > b;
endmodule
"""


@pytest.fixture
def adder_design():
    return Design.from_verilog(ADDER_SOURCE, name="adder")


class TestSimulatorBasics:
    def test_outputs_computed_correctly(self, adder_design):
        simulator = CombinationalSimulator(adder_design)
        outputs = simulator.run({"a": 10, "b": 20, "c": 5})
        assert outputs["sum"] == 35
        assert outputs["mixed"] == ((30 ^ 5) & 0x7F)
        assert outputs["gt"] == 0

    def test_values_wrap_at_declared_width(self, adder_design):
        simulator = CombinationalSimulator(adder_design)
        outputs = simulator.run({"a": 0xFF, "b": 0x02, "c": 0})
        assert outputs["sum"] == 0x01

    def test_missing_inputs_default_to_zero(self, adder_design):
        simulator = CombinationalSimulator(adder_design)
        assert simulator.run({"a": 7})["sum"] == 7

    def test_unknown_input_rejected(self, adder_design):
        simulator = CombinationalSimulator(adder_design)
        with pytest.raises(SimulationError):
            simulator.run({"zz": 1})

    def test_input_output_names(self, adder_design):
        simulator = CombinationalSimulator(adder_design)
        assert simulator.input_names == ["a", "b", "c"]
        assert set(simulator.output_names) == {"sum", "mixed", "gt"}

    def test_dependency_cycle_detected(self):
        design = Design.from_verilog("""
        module loop (input [3:0] a, output [3:0] y);
          wire [3:0] u;
          wire [3:0] v = u + a;
          assign u = v + 1;
          assign y = v;
        endmodule
        """)
        with pytest.raises(SimulationError):
            CombinationalSimulator(design)

    def test_random_vector_respects_widths(self, adder_design, rng):
        simulator = CombinationalSimulator(adder_design)
        vector = simulator.random_vector(rng)
        assert set(vector) == {"a", "b", "c"}
        assert all(0 <= value < 256 for value in vector.values())

    def test_benchmark_design_simulates(self):
        design = plus_network(12, n_inputs=4, name="plus12")
        simulator = CombinationalSimulator(design)
        outputs = simulator.run({"in0": 1, "in1": 2, "in2": 3, "in3": 4})
        assert "out" in outputs


class TestLockingFunctionalContract:
    @pytest.mark.parametrize("locker_factory", [
        lambda rng: AssureLocker("serial", rng=rng, track_metrics=False),
        lambda rng: AssureLocker("random", rng=rng, track_metrics=False),
        lambda rng: HRALocker(rng=rng, track_metrics=False),
        lambda rng: ERALocker(rng=rng, track_metrics=False),
    ], ids=["assure-serial", "assure-random", "hra", "era"])
    def test_correct_key_restores_function(self, adder_design, locker_factory):
        locked = locker_factory(random.Random(3)).lock(adder_design, 5)
        report = check_equivalence(adder_design, locked.design,
                                   key=locked.design.correct_key,
                                   vectors=40, rng=random.Random(1))
        assert report.equivalent, report.first_mismatch

    def test_wrong_key_corrupts_outputs(self, adder_design):
        locked = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False).lock(adder_design, 5)
        correct = locked.design.correct_key
        wrong = flip_bits(correct, range(len(correct)))
        rate = output_corruption(locked.design, correct, wrong,
                                 vectors=40, rng=random.Random(2))
        assert rate > 0.5

    def test_single_flipped_bit_changes_behaviour(self, adder_design):
        locked = AssureLocker("serial", rng=random.Random(1),
                              track_metrics=False).lock(adder_design, 4)
        correct = locked.design.correct_key
        wrong = flip_bits(correct, [0])
        report = check_equivalence(adder_design, locked.design, key=wrong,
                                   vectors=40, rng=random.Random(3))
        assert not report.equivalent

    def test_relocked_design_still_unlocks_with_full_key(self, adder_design):
        first = AssureLocker("serial", rng=random.Random(0),
                             track_metrics=False).lock(adder_design, 3)
        second = AssureLocker("random", rng=random.Random(1),
                              track_metrics=False).lock(first.design, 3)
        report = check_equivalence(adder_design, second.design,
                                   key=second.design.correct_key,
                                   vectors=30, rng=random.Random(4))
        assert report.equivalent

    @pytest.mark.parametrize("locker", locker_names())
    def test_locking_around_literals_preserves_function(self, locker):
        design = Design.from_verilog("""
        module c (input [7:0] a, b, output [7:0] y, z);
          assign y = (a + 8'd37) ^ 8'h0F;
          assign z = (b - 8'd5) & (a + 8'd1);
        endmodule
        """)
        locked = make_locker(locker, random.Random(3)).lock(design, 4)
        assert locked.design.key_width >= 4
        report = check_equivalence(design, locked.design,
                                   key=locked.design.correct_key,
                                   vectors=30, rng=random.Random(5))
        assert report.equivalent

    def test_locked_profile_benchmark_equivalence(self):
        profile = BenchmarkProfile("sim_prof", "simulatable profile",
                                   {"+": 6, "-": 3, "^": 4, "&": 2, "<<": 2},
                                   sequential=False, n_inputs=4)
        design = profile_design(profile, seed=7)
        locked = ERALocker(rng=random.Random(2), track_metrics=False).lock(
            design, key_budget=8)
        report = check_equivalence(design, locked.design,
                                   key=locked.design.correct_key,
                                   vectors=25, rng=random.Random(6))
        assert report.equivalent, report.first_mismatch
