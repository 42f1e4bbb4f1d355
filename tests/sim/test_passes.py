"""Golden tests of the plan pass pipeline (fold / cse / sweep-vn / prune).

The pipeline must be *value-neutral*: the compiled plan's outputs are
pinned bit-for-bit against the AST-walking scalar oracle, which shares no
code with plans, on constant-heavy, CSE-heavy and locked designs.  The
`plan.stats` counters are pinned alongside.
"""

import random

import pytest

from repro.bench import load_benchmark
from repro.locking import AssureLocker, ERALocker
from repro.rtlir import Design
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    batch_to_vectors,
    compile_plan,
    random_input_batch,
)
from repro.sim.plan import classify_steps

CONST_HEAVY = """
module const_heavy (input [7:0] a, input [7:0] b,
                    output [7:0] x, output [8:0] y, output [7:0] z,
                    output w);
  wire [7:0] k = 8'h0F + 3;
  assign x = a ^ (2 * 3 + 1);
  assign y = b + k;
  assign z = (1 ? a : b) & {4'b1010, 4'b0101};
  assign w = (8'hF0 >> 4) > (2 + 1);
endmodule
"""

CSE_HEAVY = """
module cse_heavy (input [7:0] a, input [7:0] b, input [7:0] c,
                  output [8:0] x, output [8:0] y, output [8:0] z);
  wire [8:0] t = (a + b) ^ c;
  assign x = (a + b) ^ c;
  assign y = (a + b) + ((a + b) ^ c);
  assign z = t & (a + b);
endmodule
"""


def _locked(algorithm="era", name="SASC", scale=0.2, seed=0):
    design = load_benchmark(name, scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    if algorithm == "era":
        locker = ERALocker(rng=random.Random(seed), track_metrics=False)
    else:
        locker = AssureLocker("serial", rng=random.Random(seed),
                              track_metrics=False)
    return locker.lock(design, budget).design


def _cross_check(design, vectors=10, seed=0, key=None):
    """Outputs of the compiled plan == AST scalar oracle."""
    optimised = BatchSimulator(design, plan=compile_plan(design))
    oracle = CombinationalSimulator(design)
    batch = random_input_batch(design, random.Random(seed), vectors)
    actual = optimised.run_batch(batch, key=key, n=vectors)
    for lane, vector in enumerate(batch_to_vectors(batch, vectors)):
        reference = oracle.run(vector, key=key)
        for name, value in reference.items():
            assert actual[name][lane] == value


class TestGoldenMatrix:
    @pytest.mark.parametrize("source", [CONST_HEAVY, CSE_HEAVY],
                             ids=["const", "cse"])
    def test_plain_designs(self, source):
        _cross_check(Design.from_verilog(source))

    def test_era_locked_design(self):
        locked = _locked("era")
        _cross_check(locked, key=locked.correct_key, seed=1)

    def test_assure_locked_design_wrong_key(self):
        locked = _locked("assure")
        wrong = [1 - bit for bit in locked.correct_key]
        _cross_check(locked, key=wrong, seed=2)


class TestConstantFolding:
    def test_folds_identifier_free_subtrees(self):
        design = Design.from_verilog(CONST_HEAVY)
        plan = compile_plan(design)
        assert plan.stats.folded_constants >= 4

    def test_fold_does_not_mutate_the_design_ast(self):
        design = Design.from_verilog(CONST_HEAVY)
        before = design.to_verilog()
        compile_plan(design)
        assert design.to_verilog() == before

    def test_fold_enables_static_replication(self):
        """A replication count like ``1 + 1`` only compiles folded."""
        design = Design.from_verilog("""
        module rep (input [3:0] a, output [7:0] y);
          assign y = {(1 + 1){a}};
        endmodule
        """)
        simulator = BatchSimulator(design, plan=compile_plan(design))
        oracle = CombinationalSimulator(design)
        assert simulator.run({"a": 0b1011}) == oracle.run({"a": 0b1011})

    def test_part_select_bounds_left_untouched(self):
        """IntConst-ness of select bounds decides static widths — the fold
        pass must not rewrite them."""
        design = Design.from_verilog("""
        module sel (input [15:0] a, output [7:0] y);
          assign y = {a[11:4]} + 1;
        endmodule
        """)
        _cross_check(design)


class TestSweepValueNumbering:
    def test_tags_and_vn_slots_on_locked_design(self):
        locked = _locked("era", name="I2C_SL", scale=0.25)
        plan = compile_plan(locked)
        assert plan.stats.invariant_steps > 0
        assert plan.stats.hoisted_subexprs > 0
        assert any(step.kind == "invariant" for step in plan.steps)
        # The count is the steps the sweep executor's classifier hoists.
        invariant, _ = classify_steps(plan.steps, plan.inputs,
                                      {locked.key_port})
        assert plan.stats.invariant_steps == len(invariant)

    def test_unlocked_design_tags_everything(self):
        design = Design.from_verilog(CSE_HEAVY)
        plan = compile_plan(design)
        assert plan.stats.invariant_steps == plan.stats.steps
        assert plan.stats.hoisted_subexprs == 0
