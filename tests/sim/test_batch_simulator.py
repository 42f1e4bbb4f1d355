"""Cross-check suite: the batch engine against the scalar reference oracle.

The scalar :class:`CombinationalSimulator` is the semantic ground truth; the
bit-parallel :class:`BatchSimulator` must match it *output-for-output* on
every lane — for random generated designs, random keys (correct and wrong),
1-bit and 64-bit signals, and batches wider than a machine word.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import plus_network, profile_design
from repro.bench.profiles import BenchmarkProfile
from repro.locking import AssureLocker, ERALocker, HRALocker
from repro.rtlir import Design
from repro.sim import (
    BatchCompileError,
    BatchSimulator,
    CombinationalSimulator,
    SimulationError,
    batch_to_vectors,
    compile_plan,
    pack_values,
    random_input_batch,
    unpack_values,
)

#: Operators drawn by the random cross-check profiles; division/modulo and
#: shifts are included to exercise the bit-slice divider and barrel shifter.
_OPERATORS = ["+", "-", "*", "/", "%", "^", "&", "|", "<<", ">>",
              "<", ">", "<=", ">=", "==", "!="]


def _cross_check(design, vectors, seed, key=None):
    """Assert batch == scalar on every lane and every output."""
    scalar = CombinationalSimulator(design)
    batch = BatchSimulator(design)
    assert batch.output_names == scalar.output_names

    packed = random_input_batch(design, random.Random(seed), vectors)
    vector_list = batch_to_vectors(packed, vectors)
    got = batch.run_batch(packed, key=key, n=vectors)
    for lane, vector in enumerate(vector_list):
        expected = scalar.run(vector, key=key)
        for name, value in expected.items():
            assert got[name][lane] == value, (
                f"lane {lane} output {name}: scalar={value} "
                f"batch={got[name][lane]} inputs={vector}")


@st.composite
def cross_check_profiles(draw):
    n_types = draw(st.integers(min_value=2, max_value=6))
    operators = draw(st.permutations(_OPERATORS))[:n_types]
    operations = {op: draw(st.integers(min_value=1, max_value=6))
                  for op in operators}
    width = draw(st.sampled_from([1, 4, 8, 16, 64]))
    return BenchmarkProfile(name="hyp_batch_profile",
                            description="hypothesis batch cross-check",
                            operations=operations, sequential=False,
                            n_inputs=4, width=width)


class TestBatchMatchesScalar:
    @given(profile=cross_check_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_random_designs(self, profile, seed):
        design = profile_design(profile, seed=seed)
        _cross_check(design, vectors=17, seed=seed + 1)

    @given(profile=cross_check_profiles(), seed=st.integers(0, 2 ** 16),
           algorithm=st.sampled_from(["assure", "hra", "era"]))
    @settings(max_examples=20, deadline=None)
    def test_locked_designs_random_keys(self, profile, seed, algorithm):
        lockers = {
            "assure": lambda r: AssureLocker("random", rng=r,
                                             track_metrics=False),
            "hra": lambda r: HRALocker(rng=r, track_metrics=False),
            "era": lambda r: ERALocker(rng=r, track_metrics=False),
        }
        design = profile_design(profile, seed=seed)
        budget = max(1, design.num_operations() // 2)
        locked = lockers[algorithm](random.Random(seed)).lock(design, budget)
        correct = locked.design.correct_key
        key_rng = random.Random(seed + 2)
        wrong = [key_rng.randint(0, 1) for _ in correct]
        for key in (correct, wrong):
            _cross_check(locked.design, vectors=9, seed=seed + 3, key=key)

    def test_one_bit_signals(self):
        design = Design.from_verilog("""
        module onebit (input a, input b, input c, output x, output y, output z);
          wire t = a & b;
          assign x = t | c;
          assign y = a ^ b ^ c;
          assign z = !(a < b);
        endmodule
        """, name="onebit")
        _cross_check(design, vectors=64, seed=0)

    def test_sixty_four_bit_signals(self):
        design = Design.from_verilog("""
        module wide (
          input [63:0] a,
          input [63:0] b,
          output [63:0] s,
          output [63:0] x,
          output cmp
        );
          wire [63:0] t = a + b;
          assign s = t;
          assign x = (a ^ b) & t;
          assign cmp = a > b;
        endmodule
        """, name="wide")
        _cross_check(design, vectors=32, seed=1)

    def test_more_than_64_lanes(self):
        design = plus_network(20, n_inputs=4, name="plus20")
        _cross_check(design, vectors=300, seed=2)

    def test_single_lane(self):
        design = plus_network(8, n_inputs=4, name="plus8")
        _cross_check(design, vectors=1, seed=3)

    def test_mixed_width_expressions(self):
        design = Design.from_verilog("""
        module mixed (
          input [7:0] a,
          input [3:0] b,
          input c,
          output [7:0] y,
          output [7:0] w,
          output r
        );
          wire [7:0] t0 = a - b;
          wire [7:0] t1 = c ? (a * b) : (a / (b + 1));
          wire [7:0] t2 = {b, a[7:4]};
          wire [7:0] t3 = ~t0;
          assign y = t1 ^ t2;
          assign w = (t3 >> b[1:0]) + {2{b}};
          assign r = &a | ^b;
        endmodule
        """, name="mixed")
        _cross_check(design, vectors=128, seed=4)

    def test_reductions_and_unary(self):
        design = Design.from_verilog("""
        module redux (input [7:0] a, input [7:0] b,
                      output [7:0] n, output o0, output o1, output o2,
                      output o3, output o4);
          assign n = -a;
          assign o0 = &a;
          assign o1 = ~&a;
          assign o2 = |b;
          assign o3 = ~|b;
          assign o4 = ^a ^ ~^b;
        endmodule
        """, name="redux")
        _cross_check(design, vectors=256, seed=5)

    def test_division_by_zero_convention(self):
        design = Design.from_verilog("""
        module divz (input [7:0] a, input [7:0] b,
                     output [7:0] q, output [7:0] r);
          assign q = a / b;
          assign r = a % b;
        endmodule
        """, name="divz")
        scalar = CombinationalSimulator(design)
        batch = BatchSimulator(design)
        outputs = batch.run_batch({"a": [17, 200, 0], "b": [0, 3, 0]})
        assert outputs["q"] == [0, 66, 0]
        assert outputs["r"] == [0, 2, 0]
        assert scalar.run({"a": 17, "b": 0}) == {"q": 0, "r": 0}
        _cross_check(design, vectors=200, seed=6)


class TestBatchApi:
    def test_missing_inputs_default_to_zero(self):
        design = plus_network(4, n_inputs=4, name="plus4")
        batch = BatchSimulator(design)
        scalar = CombinationalSimulator(design)
        got = batch.run_batch({"in0": [7, 9]})
        assert got["out"][0] == scalar.run({"in0": 7})["out"]
        assert got["out"][1] == scalar.run({"in0": 9})["out"]

    def test_unknown_input_rejected(self):
        design = plus_network(4, n_inputs=4, name="plus4")
        with pytest.raises(SimulationError):
            BatchSimulator(design).run_batch({"zz": [1]})

    def test_inconsistent_lane_counts_rejected(self):
        design = plus_network(4, n_inputs=4, name="plus4")
        with pytest.raises(SimulationError):
            BatchSimulator(design).run_batch({"in0": [1, 2], "in1": [3]})

    def test_empty_batch_rejected(self):
        design = plus_network(4, n_inputs=4, name="plus4")
        with pytest.raises(SimulationError):
            BatchSimulator(design).run_batch({})

    def test_invalid_key_bit_rejected(self):
        design = profile_design(BenchmarkProfile(
            "kb", "key batch", {"+": 3}, sequential=False, n_inputs=3), seed=0)
        locked = AssureLocker("serial", rng=random.Random(0),
                              track_metrics=False).lock(design, 2).design
        batch = BatchSimulator(locked)
        with pytest.raises(SimulationError):
            batch.run_batch({"d0": [1]}, key=[2] * locked.key_width)

    def test_run_single_vector_matches_scalar(self):
        design = plus_network(10, n_inputs=4, name="plus10")
        batch = BatchSimulator(design)
        scalar = CombinationalSimulator(design)
        vector = {"in0": 11, "in1": 22, "in2": 33, "in3": 44}
        assert batch.run(vector) == scalar.run(vector)

    def test_plan_is_shareable(self):
        design = plus_network(6, n_inputs=4, name="plus6")
        plan = compile_plan(design)
        a = BatchSimulator(design, plan=plan)
        b = BatchSimulator(design, plan=plan)
        assert a.plan is b.plan
        inputs = {"in0": [1], "in1": [2], "in2": [3], "in3": [4]}
        assert a.run_batch(inputs) == b.run_batch(inputs)

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
            BatchSimulator(design)

    def test_dynamic_replication_unsupported(self):
        design = Design.from_verilog("""
        module dynrep (input [3:0] a, input [1:0] n, output [7:0] y);
          assign y = {n{a}};
        endmodule
        """)
        with pytest.raises(BatchCompileError):
            BatchSimulator(design)


class TestPackingHelpers:
    @given(values=st.lists(st.integers(min_value=0, max_value=2 ** 16 - 1),
                           min_size=1, max_size=100),
           width=st.integers(min_value=1, max_value=16))
    @settings(max_examples=50, deadline=None)
    def test_pack_unpack_roundtrip(self, values, width):
        masked = [v & ((1 << width) - 1) for v in values]
        slices = pack_values(values, width)
        assert len(slices) == width
        assert unpack_values(slices, len(values)) == masked

    def test_pack_masks_to_width(self):
        assert unpack_values(pack_values([0x1FF], 8), 1) == [0xFF]
