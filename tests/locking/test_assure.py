"""Unit tests for ASSURE-style locking (baseline scheme)."""

import random

import pytest

from repro.locking import AssureLocker, LockingSession
from repro.locking.pairs import ORIGINAL_ASSURE_TABLE
from repro.rtlir import Design
from repro.verilog import ast


class TestOperationLocking:
    def test_budget_respected_exactly(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=4)
        assert result.bits_used == 4
        assert result.design.key_width == 4
        assert not result.exceeded_budget

    def test_budget_larger_than_design_locks_everything(self, mixer_design, rng):
        total = mixer_design.num_operations()
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=999)
        assert result.bits_used == total

    def test_zero_budget(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=0)
        assert result.bits_used == 0
        assert not result.design.is_locked

    def test_negative_budget_rejected(self, mixer_design, rng):
        with pytest.raises(ValueError):
            AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=-1)

    def test_input_design_untouched_by_default(self, mixer_design, rng):
        before = mixer_design.to_verilog()
        AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        assert mixer_design.to_verilog() == before

    def test_in_place_locking(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3,
                                                      in_place=True)
        assert result.design is mixer_design
        assert mixer_design.key_width == 3

    def test_dummy_operator_follows_pair_table(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=6)
        from repro.locking.pairs import SYMMETRIC_PAIR_TABLE
        for bit in result.design.key_bits:
            assert bit.kind == "operation"
            assert bit.dummy_op is not None
            # With the symmetric table the dummy is always the pair partner.
            assert SYMMETRIC_PAIR_TABLE.dummy_of(bit.real_op) == bit.dummy_op

    def test_key_values_are_not_constant(self, plus_chain_design):
        result = AssureLocker("serial", rng=random.Random(3)).lock(
            plus_chain_design, key_budget=6)
        values = {bit.correct_value for bit in result.design.key_bits}
        assert values == {0, 1}

    def test_original_pair_table_supported(self, mixer_design, rng):
        locker = AssureLocker("serial", pair_table=ORIGINAL_ASSURE_TABLE, rng=rng)
        result = locker.lock(mixer_design, key_budget=5)
        for bit in result.design.key_bits:
            assert ORIGINAL_ASSURE_TABLE.dummy_of(bit.real_op) == bit.dummy_op

    def test_invalid_selection_mode(self):
        with pytest.raises(ValueError):
            AssureLocker("alphabetical")

    def test_algorithm_name_includes_selection(self, mixer_design, rng):
        result = AssureLocker("random", rng=rng).lock(mixer_design, 2)
        assert result.algorithm == "assure-random"


class TestSelectionStrategies:
    def test_serial_selection_is_deterministic_in_targets(self, plus_chain_design):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, key_budget=3)
        second = AssureLocker("serial", rng=random.Random(99)).lock(
            plus_chain_design, key_budget=3)
        # Key values differ (random), but the same operations are locked: the
        # generated ternaries sit in the same assignments.
        def locked_wires(design):
            wires = []
            for item in design.top.items:
                if isinstance(item, ast.NetDeclaration) and item.init is not None:
                    if isinstance(item.init, ast.TernaryOp):
                        wires.append(item.names[0])
            return wires

        assert locked_wires(first.design) == locked_wires(second.design)

    def test_serial_selection_follows_topological_order(self, plus_chain_design, rng):
        result = AssureLocker("serial", rng=rng).lock(plus_chain_design, key_budget=2)
        locked = [item.names[0] for item in result.design.top.items
                  if isinstance(item, ast.NetDeclaration)
                  and isinstance(item.init, ast.TernaryOp)]
        assert locked == ["s0", "s1"]

    def test_random_selection_varies_targets(self, plus_chain_design):
        def locked_wires(seed):
            result = AssureLocker("random", rng=random.Random(seed)).lock(
                plus_chain_design, key_budget=2)
            return tuple(item.names[0] for item in result.design.top.items
                         if isinstance(item, ast.NetDeclaration)
                         and isinstance(item.init, ast.TernaryOp))

        outcomes = {locked_wires(seed) for seed in range(12)}
        assert len(outcomes) > 1


class TestRelocking:
    def test_relock_appends_key_bits(self, mixer_design, rng):
        first = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        second = AssureLocker("random", rng=random.Random(5)).lock(
            first.design, key_budget=4)
        assert second.design.key_width == 7
        assert [b.index for b in second.design.key_bits] == list(range(7))
        # The original target is untouched.
        assert first.design.key_width == 3

    def test_relock_creates_nested_ternaries(self, plus_chain_design):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, key_budget=6)
        second = AssureLocker("random", rng=random.Random(1)).lock(
            first.design, key_budget=6)
        text = second.design.to_verilog()
        # At least one branch of an existing ternary now holds another ternary.
        nested = [node for node in second.design.top.iter_tree()
                  if isinstance(node, ast.TernaryOp)
                  and (isinstance(node.true_value, ast.TernaryOp)
                       or isinstance(node.false_value, ast.TernaryOp))]
        assert nested
        assert text.count("?") == 12

    @pytest.mark.parametrize("selection", ["serial", "random"])
    def test_session_relock_matches_lock(self, mixer_design, selection):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            mixer_design, key_budget=3)
        expected = AssureLocker(selection, rng=random.Random(4)).lock(
            first.design, key_budget=4).design
        session = LockingSession(first.design.copy())
        actions = AssureLocker(selection, rng=random.Random(4)).relock(
            session, key_budget=4)
        assert len(actions) == 4
        assert actions == session.actions
        assert session.design.to_verilog() == expected.to_verilog()
        assert session.design.correct_key == expected.correct_key

    def test_session_relock_rejects_negative_budget(self, mixer_design, rng):
        session = LockingSession(mixer_design)
        with pytest.raises(ValueError):
            AssureLocker("random", rng=rng).relock(session, key_budget=-1)


class TestOtherTechniques:
    def test_constant_obfuscation(self, rng):
        design = Design.from_verilog("""
        module c (input [7:0] a, output [7:0] x, y);
          assign x = a + 8'd37;
          assign y = a ^ 8'hF0;
        endmodule
        """)
        result = AssureLocker(rng=rng).lock_constants(design, max_constants=2)
        assert result.bits_used == 16
        assert all(bit.kind == "constant" for bit in result.design.key_bits)
        text = result.design.to_verilog().lower()
        assert "8'd37" not in text
        assert "8'hf0" not in text

    def test_branch_obfuscation(self, mixer_design, rng):
        result = AssureLocker(rng=rng).lock_branches(mixer_design, max_branches=2)
        assert result.bits_used == 2
        assert all(bit.kind == "branch" for bit in result.design.key_bits)

    def test_branch_budget_zero(self, mixer_design, rng):
        result = AssureLocker(rng=rng).lock_branches(mixer_design, max_branches=0)
        assert result.bits_used == 0

    def test_negative_limits_rejected(self, mixer_design, rng):
        with pytest.raises(ValueError):
            AssureLocker(rng=rng).lock_constants(mixer_design, -1)
        with pytest.raises(ValueError):
            AssureLocker(rng=rng).lock_branches(mixer_design, -2)


class TestMetricsTracking:
    def test_tracker_present_by_default(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        assert result.tracker is not None
        assert len(result.tracker.points) == 3

    def test_tracker_disabled(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng, track_metrics=False).lock(
            mixer_design, key_budget=3)
        assert result.tracker is None

    def test_summary_mentions_algorithm(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, key_budget=3)
        assert "assure-serial" in result.summary()
