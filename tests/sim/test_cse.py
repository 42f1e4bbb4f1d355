"""Common-subexpression elimination and dead-assignment pruning in compile_plan.

Both passes are pure plan-shape optimisations: the compiled closures must
produce values bit-identical to the scalar oracle on every design, while the plan itself gets smaller (dead steps) or
cheaper (shared subtrees evaluated once per pass).  Pruning runs first, so
the later passes see only live assignments: dead code shares no
subexpression and cannot fail the lowering, but its cycles still raise.
"""

import random

import pytest

from repro.bench import load_benchmark
from repro.locking import ERALocker
from repro.rtlir import Design
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    SimulationError,
    batch_to_vectors,
    compile_plan,
    random_input_batch,
)

CSE_HEAVY = """
module cse_heavy (input [7:0] a, input [7:0] b, input [7:0] c,
                  output [8:0] x, output [8:0] y, output [8:0] z);
  wire [8:0] t = (a + b) ^ c;
  assign x = (a + b) ^ c;
  assign y = (a + b) + ((a + b) ^ c);
  assign z = t & (a + b);
endmodule
"""

DEAD_LOGIC = """
module dead_logic (input [7:0] a, input [7:0] b, output [8:0] y);
  wire [8:0] used = a + b;
  wire [8:0] unused1 = a * b;
  wire [8:0] unused2 = unused1 ^ a;
  assign y = used;
endmodule
"""


def _cross_check(design, vectors=12, seed=0, key=None):
    optimised = BatchSimulator(design, plan=compile_plan(design))
    scalar = CombinationalSimulator(design)
    batch = random_input_batch(design, random.Random(seed), vectors)
    actual = optimised.run_batch(batch, key=key, n=vectors)
    for lane, vector in enumerate(batch_to_vectors(batch, vectors)):
        reference = scalar.run(vector, key=key)
        for name, value in reference.items():
            assert actual[name][lane] == value


class TestSharedSubexpressions:
    def test_repeated_subtrees_are_hoisted(self):
        design = Design.from_verilog(CSE_HEAVY)
        plan = compile_plan(design)
        # (a + b) recurs four times and ((a + b) ^ c) twice.
        assert plan.stats.cse_steps >= 2
        names = [step.target for step in plan.steps]
        assert any(name.startswith("$cse") for name in names)

    def test_cse_outputs_bit_identical(self):
        _cross_check(Design.from_verilog(CSE_HEAVY))

    def test_cse_slots_never_reported_as_outputs(self):
        design = Design.from_verilog(CSE_HEAVY)
        simulator = BatchSimulator(design)
        assert all(not name.startswith("$cse")
                   for name in simulator.output_names)

    def test_era_locked_design_exercises_cse(self):
        design = load_benchmark("MD5", scale=0.15, seed=0)
        budget = max(1, int(0.75 * design.num_operations()))
        locked = ERALocker(rng=random.Random(0),
                           track_metrics=False).lock(design, budget).design
        plan = compile_plan(locked)
        assert plan.stats.cse_steps > 0
        _cross_check(locked, key=locked.correct_key, seed=1)


class TestDeadStepPruning:
    def test_unreferenced_steps_are_dropped(self):
        design = Design.from_verilog(DEAD_LOGIC)
        plan = compile_plan(design)
        names = {step.target for step in plan.steps}
        assert "unused1" not in names and "unused2" not in names
        assert plan.stats.pruned_steps == 2

    def test_pruning_keeps_outputs_identical(self):
        _cross_check(Design.from_verilog(DEAD_LOGIC))

    def test_transitive_liveness_is_preserved(self):
        design = Design.from_verilog("""
        module chain (input [3:0] a, output [3:0] y);
          wire [3:0] s0 = a + 1;
          wire [3:0] s1 = s0 ^ 3;
          wire [3:0] s2 = s1 & 7;
          assign y = s2;
        endmodule
        """)
        plan = compile_plan(design)
        names = [step.target for step in plan.steps]
        assert names == ["s0", "s1", "s2", "y"]
        assert plan.stats.pruned_steps == 0

    def test_live_cse_slot_of_dead_user_is_pruned(self):
        design = Design.from_verilog("""
        module partial (input [7:0] a, input [7:0] b, output [8:0] y);
          wire [8:0] dead1 = (a * b) + 1;
          wire [8:0] dead2 = (a * b) + 2;
          assign y = a + b;
        endmodule
        """)
        plan = compile_plan(design)
        # (a * b) is shared, but only by dead steps: slot and users all go.
        names = [step.target for step in plan.steps]
        assert names == ["y"]
        assert plan.stats.pruned_steps == 2
        assert plan.stats.cse_steps == 0

    def test_subtree_shared_with_dead_code_is_not_hoisted(self):
        design = Design.from_verilog("""
        module half (input [7:0] a, input [7:0] b, output [8:0] y);
          wire [8:0] dead = (a * b) ^ 1;
          assign y = (a * b) + 1;
        endmodule
        """)
        plan = compile_plan(design)
        # (a * b) occurs twice, but once in dead code: the live step
        # computes it inline, with no slot.
        assert [step.target for step in plan.steps] == ["y"]
        assert plan.stats.cse_steps == 0
        assert plan.stats.pruned_steps == 1
        _cross_check(design)

    def test_dead_code_the_lowering_rejects_does_not_block_the_plan(self):
        design = Design.from_verilog("""
        module deadsel (input [7:0] a, input [2:0] n, output [8:0] y);
          wire [7:0] dead = a[n:0];
          assign y = a + 1;
        endmodule
        """)
        # A part-select with a signal bound has no static bit-slice form;
        # it is dead, so the plan never lowers it.
        plan = compile_plan(design)
        assert [step.target for step in plan.steps] == ["y"]
        assert plan.stats.pruned_steps == 1
        _cross_check(design)

    def test_cycle_in_dead_code_still_raises(self):
        design = Design.from_verilog("""
        module deadloop (input [3:0] a, output [3:0] y);
          wire [3:0] p, q;
          assign p = q + a;
          assign q = p ^ 1;
          assign y = a;
        endmodule
        """)
        message = "combinational dependency cycle involving: p, q"
        with pytest.raises(SimulationError, match=message):
            compile_plan(design)
        with pytest.raises(SimulationError, match=message):
            CombinationalSimulator(design)


@pytest.mark.parametrize("profile", ["MD5", "FIR", "SASC", "DFT", "IIR"])
def test_seed_profiles_bit_identical_with_optimised_plans(profile):
    design = load_benchmark(profile, scale=0.15, seed=0)
    _cross_check(design, vectors=8, seed=2)
