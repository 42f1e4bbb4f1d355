"""Tests for the combinational simulator and the locking functional contract."""

import random

import pytest

from repro.api import locker_names, make_locker
from repro.bench import plus_network, profile_design
from repro.bench.profiles import BenchmarkProfile
from repro.locking import AssureLocker, ERALocker, HRALocker
from repro.rtlir import Design
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    SimulationError,
    input_signals,
    random_input_batch,
    sweep_differences,
)
from tests.helpers import check_equivalence, flip_bits

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
        assert [name for name, _ in input_signals(adder_design)] \
            == ["a", "b", "c"]
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

    def test_random_input_batch_respects_widths(self, adder_design, rng):
        batch = random_input_batch(adder_design, rng, 16)
        assert set(batch) == {"a", "b", "c"}
        assert all(0 <= value < 256
                   for values in batch.values() for value in values)

    def test_benchmark_design_simulates(self):
        design = plus_network(12, n_inputs=4, name="plus12")
        simulator = CombinationalSimulator(design)
        outputs = simulator.run({"in0": 1, "in1": 2, "in2": 3, "in3": 4})
        assert "out" in outputs


#: Declared ranges held as data: (id, Verilog of a module with input
#: ``a`` and output ``y = a + 1``, width of ``a``).
CONSTANT_RANGES = [
    ("literal", "module m (input [3:0] a, output [3:0] y);"
                " assign y = a + 1; endmodule", 4),
    ("folded", "module m (input [4-1:0] a, output [3:0] y);"
               " assign y = a + 1; endmodule", 4),
    ("macro", "`define W 4\nmodule m (input [`W-1:0] a, output [`W-1:0] y);"
              " assign y = a + 1; endmodule", 4),
    ("ascending", "module m (input [0:5] a, output [5:0] y);"
                  " assign y = a + 1; endmodule", 6),
    ("no-range", "module m (input a, output [1:0] y);"
                 " assign y = a + 1; endmodule", 1),
]

#: Ranges that are not constant: (id, Verilog, the SimulationError
#: message every engine and ``input_signals`` raise).  Parameters are not
#: resolved, so a range that reads one is rejected, not read as 1 bit.
NON_CONSTANT_RANGES = [
    ("parameter-port", "module m #(parameter W = 4) (input [W-1:0] a,"
                       " output [W-1:0] y); assign y = a + 1; endmodule",
     "signal 'a' has a range that is not constant: [(W - 1):0]"),
    ("parameter-output", "module m #(parameter W = 4) (input [3:0] a,"
                         " output [W:0] y); assign y = a + 1; endmodule",
     "signal 'y' has a range that is not constant: [W:0]"),
    ("localparam-wire", "module m (input [3:0] a, output [3:0] y);"
                        " localparam K = 2; wire [K:0] t; assign t = a;"
                        " assign y = t + 1; endmodule",
     "signal 't' has a range that is not constant: [K:0]"),
    ("port-declaration", "module m (a, y); parameter W = 4;"
                         " input [W-1:0] a; output [3:0] y;"
                         " assign y = a + 1; endmodule",
     "signal 'a' has a range that is not constant: [(W - 1):0]"),
]

#: Every reader of the declared widths.
WIDTH_READERS = {"scalar": CombinationalSimulator, "batch": BatchSimulator,
                 "input_signals": input_signals}


class TestDeclaredWidths:
    @pytest.mark.parametrize("source,width",
                             [case[1:] for case in CONSTANT_RANGES],
                             ids=[case[0] for case in CONSTANT_RANGES])
    def test_constant_ranges(self, source, width):
        design = Design.from_verilog(source)
        assert input_signals(design) == [("a", width)]
        for engine in (CombinationalSimulator, BatchSimulator):
            simulator = engine(design)
            assert simulator.width_of("a") == width
            assert simulator.run({"a": 1})["y"] == 2

    @pytest.mark.parametrize("reader", sorted(WIDTH_READERS))
    @pytest.mark.parametrize("source,message",
                             [case[1:] for case in NON_CONSTANT_RANGES],
                             ids=[case[0] for case in NON_CONSTANT_RANGES])
    def test_non_constant_ranges_raise(self, reader, source, message):
        design = Design.from_verilog(source)
        with pytest.raises(SimulationError) as excinfo:
            WIDTH_READERS[reader](design)
        assert str(excinfo.value) == message


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
        batch = random_input_batch(locked.design, random.Random(2), 40)
        differences = sweep_differences(locked.design, batch,
                                        keys=[correct, wrong], n=40)
        assert differences.lanes[0] / 40 > 0.5

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
