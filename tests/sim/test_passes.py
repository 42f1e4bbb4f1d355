"""Golden tests of the plan pass pipeline (fold / cse / sweep-vn / prune).

Every pass — alone, combined, or disabled — must be *value-neutral*: the
compiled plan's outputs are pinned bit-for-bit against the AST-walking
scalar oracle and against the completely unoptimised plan, on plain,
constant-heavy, CSE-heavy and locked designs.  The per-pass `plan.stats`
deltas are pinned alongside.
"""

import itertools
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
from repro.sim.plan import PASS_ORDER, normalize_passes

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

#: Pass subsets exercised by the golden matrix: each optimisation alone,
#: nothing, everything.
PASS_SUBSETS = [
    ("lower",),
    ("fold", "lower"),
    ("cse", "lower"),
    ("sweep-vn", "lower"),
    ("lower", "prune"),
    PASS_ORDER,
]


def _locked(algorithm="era", name="SASC", scale=0.2, seed=0):
    design = load_benchmark(name, scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    if algorithm == "era":
        locker = ERALocker(rng=random.Random(seed), track_metrics=False)
    else:
        locker = AssureLocker("serial", rng=random.Random(seed),
                              track_metrics=False)
    return locker.lock(design, budget).design


def _cross_check(design, passes, vectors=10, seed=0, key=None):
    """Outputs of a pass subset == no-pass plan == AST scalar oracle."""
    plain = BatchSimulator(design, plan=compile_plan(design,
                                                     passes=("lower",)))
    optimised = BatchSimulator(design, plan=compile_plan(design,
                                                         passes=passes))
    oracle = CombinationalSimulator(design)
    batch = random_input_batch(design, random.Random(seed), vectors)
    expected = plain.run_batch(batch, key=key, n=vectors)
    actual = optimised.run_batch(batch, key=key, n=vectors)
    assert actual == expected
    for lane, vector in enumerate(batch_to_vectors(batch, vectors)):
        reference = oracle.run(vector, key=key)
        for name, value in reference.items():
            assert actual[name][lane] == value


class TestGoldenMatrix:
    @pytest.mark.parametrize("passes", PASS_SUBSETS,
                             ids=["+".join(p) for p in PASS_SUBSETS])
    @pytest.mark.parametrize("source", [CONST_HEAVY, CSE_HEAVY],
                             ids=["const", "cse"])
    def test_plain_designs(self, source, passes):
        _cross_check(Design.from_verilog(source), passes)

    @pytest.mark.parametrize("passes", PASS_SUBSETS,
                             ids=["+".join(p) for p in PASS_SUBSETS])
    def test_era_locked_design(self, passes):
        locked = _locked("era")
        _cross_check(locked, passes, key=locked.correct_key, seed=1)

    @pytest.mark.parametrize("passes", PASS_SUBSETS,
                             ids=["+".join(p) for p in PASS_SUBSETS])
    def test_assure_locked_design_wrong_key(self, passes):
        locked = _locked("assure")
        wrong = [1 - bit for bit in locked.correct_key]
        _cross_check(locked, passes, key=wrong, seed=2)

    def test_cse_design_from_pr2_under_every_toggle_pair(self):
        """The PR 2 CSE design stays bit-identical for every cse × prune
        × fold × sweep-vn combination."""
        design = Design.from_verilog(CSE_HEAVY)
        optional = [name for name in PASS_ORDER if name != "lower"]
        for flags in itertools.product((False, True), repeat=4):
            plan = compile_plan(design, passes=[
                name for name, on in zip(optional, flags) if on])
            simulator = BatchSimulator(design, plan=plan)
            batch = random_input_batch(design, random.Random(3), 6)
            reference = BatchSimulator(
                design, plan=compile_plan(design, passes=("lower",))
            ).run_batch(batch, n=6)
            assert simulator.run_batch(batch, n=6) == reference


class TestConstantFolding:
    def test_folds_identifier_free_subtrees(self):
        design = Design.from_verilog(CONST_HEAVY)
        plan = compile_plan(design)
        assert plan.stats.folded_constants >= 4

    def test_fold_disabled_reports_zero(self):
        design = Design.from_verilog(CONST_HEAVY)
        plan = compile_plan(design, passes=("cse", "sweep-vn", "prune"))
        assert plan.stats.folded_constants == 0

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
        from repro.sim import BatchCompileError

        with pytest.raises(BatchCompileError):
            compile_plan(design, passes=("cse", "sweep-vn", "prune"))
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
        _cross_check(design, PASS_ORDER)


class TestSweepValueNumbering:
    def test_tags_and_vn_slots_on_locked_design(self):
        locked = _locked("era", name="I2C_SL", scale=0.25)
        plan = compile_plan(locked)
        assert plan.sweep_hoist
        assert plan.stats.invariant_steps > 0
        assert plan.stats.hoisted_subexprs > 0
        assert any(step.kind == "invariant" for step in plan.steps)
        # Tagged steps never read the key port, transitively.
        invariant_names = {name for name in plan.inputs
                           if name != locked.key_port}
        for step in plan.steps:
            if step.point_invariant:
                assert set(step.reads) <= invariant_names
                invariant_names.add(step.target)

    def test_disabled_pass_leaves_plan_untagged(self):
        locked = _locked("era")
        plan = compile_plan(locked, passes=("fold", "cse", "prune"))
        assert not plan.sweep_hoist
        assert plan.stats.invariant_steps == 0
        assert plan.stats.hoisted_subexprs == 0
        assert all(not step.point_invariant for step in plan.steps)

    def test_unlocked_design_tags_everything(self):
        design = Design.from_verilog(CSE_HEAVY)
        plan = compile_plan(design)
        assert plan.sweep_hoist
        assert plan.stats.invariant_steps == plan.stats.steps
        assert plan.stats.hoisted_subexprs == 0


class TestPassManagerPlumbing:
    def test_stats_record_per_pass_deltas_in_order(self):
        locked = _locked("era")
        plan = compile_plan(locked)
        assert [d.name for d in plan.stats.passes] == list(PASS_ORDER)
        for delta in plan.stats.passes:
            assert delta.steps_before >= 0 and delta.steps_after >= 0
            assert delta.detail
        prune = plan.stats.passes[-1]
        assert prune.steps_before - prune.steps_after \
            == plan.stats.pruned_steps
        assert plan.stats.steps == prune.steps_after

    def test_normalize_passes_inserts_lower_and_orders(self):
        assert normalize_passes(["prune", "cse"]) == ["cse", "lower",
                                                      "prune"]
        assert normalize_passes(["lower"]) == ["lower"]
        assert normalize_passes(PASS_ORDER) == list(PASS_ORDER)

    def test_unknown_pass_rejected(self):
        design = Design.from_verilog(CSE_HEAVY)
        with pytest.raises(ValueError, match="unknown plan pass"):
            compile_plan(design, passes=("turbo",))

    def test_legacy_stats_fields_still_pinned(self):
        """cse_steps/pruned_steps keep their pre-refactor meaning."""
        design = Design.from_verilog(CSE_HEAVY)
        plan = compile_plan(design)
        assert plan.stats.cse_steps >= 2
        no_cse = compile_plan(design,
                              passes=("fold", "sweep-vn", "prune"))
        assert no_cse.stats.cse_steps == 0
