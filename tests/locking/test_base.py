"""Unit tests for the core locking primitives (LockingSession)."""

import dataclasses
import random

import pytest

from repro.locking import AssureLocker, LockingError, LockingSession
from repro.rtlir import Design
from repro.verilog import ast
from repro.verilog.parser import parse_module

from ..conftest import MIXER_SOURCE


@pytest.fixture
def session(mixer_design, rng):
    return LockingSession(mixer_design, rng=rng)


class TestRegistry:
    def test_registry_matches_census(self, session, mixer_design):
        census = mixer_design.operation_census()
        for op, count in census.items():
            assert len(session.ops_of_type(op)) == count
        assert len(session.all_ops()) == sum(census.values())

    def test_dummy_registered_after_add_pair(self, session):
        ref = session.ops_of_type("*")[0]
        session.add_pair(ref)
        assert len(session.ops_of_type("/")) == 1
        assert session.ops_of_type("/")[0].is_dummy

    def test_ops_of_unknown_type_empty(self, session):
        assert session.ops_of_type("%") == []


class TestOperationLocking:
    def test_add_pair_creates_key_controlled_ternary(self, session, mixer_design):
        ref = session.ops_of_type("+")[0]
        action = session.add_pair(ref)
        assert action.kind == "operation"
        assert action.bits_used == 1
        assert mixer_design.key_width == 1
        assert mixer_design.key_port is not None
        ternary = action.replacement
        assert isinstance(ternary, ast.TernaryOp)
        branch_ops = {ternary.true_value.op, ternary.false_value.op}
        assert branch_ops == {"+", "-"}

    def test_ternary_branch_matches_key_value(self, session, mixer_design):
        ref = session.ops_of_type("+")[0]
        action = session.add_pair(ref, correct_value=1)
        assert action.replacement.true_value is action.original
        other = session.ops_of_type("*")[0]
        action0 = session.add_pair(other, correct_value=0)
        assert action0.replacement.false_value is action0.original

    def test_custom_dummy_operator(self, session):
        ref = session.ops_of_type("+")[0]
        action = session.add_pair(ref, dummy_op="*")
        assert action.dummy_op == "*"
        assert action.replacement.true_value.op in {"+", "*"}

    def test_key_port_width_tracks_bits(self, session, mixer_design):
        for index in range(3):
            session.add_pair(session.ops_of_type("+")[index % 3])
        port = mixer_design.top.find_port(mixer_design.key_port)
        assert port.width.width() == 3

    def test_odt_updated_by_add_pair(self, session):
        before = session.odt["+"]
        session.add_pair(session.ops_of_type("+")[0])
        assert session.odt["+"] == before - 1
        assert session.odt.is_affected("+")

    def test_dummy_operands_are_clones(self, session):
        ref = session.ops_of_type("+")[0]
        action = session.add_pair(ref, correct_value=1)
        dummy = action.replacement.false_value
        real = action.original
        assert dummy.left is not real.left
        assert dummy.right is not real.right

    def test_relocking_a_locked_operation(self, session, mixer_design):
        ref = session.ops_of_type("+")[0]
        session.add_pair(ref)
        # Relock the same (now nested) real operation again.
        session.add_pair(ref)
        assert mixer_design.key_width == 2
        text = mixer_design.to_verilog()
        assert text.count(f"{mixer_design.key_port}[") >= 2

    def test_stale_reference_rejected(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        ref = session.ops_of_type("+")[0]
        # Manually replace the node behind the session's back.
        ref.parent.replace_child(ref.node, ast.Identifier("oops"))
        with pytest.raises(LockingError):
            session.add_pair(ref)
        # The failed attempt must not leave a dangling key bit.
        assert mixer_design.key_width == 0


class TestBranchLocking:
    def test_branch_lock_inverts_on_one(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        branch = [node for node in mixer_design.top.iter_tree()
                  if isinstance(node, ast.IfStatement)][0]
        original_cond = branch.cond
        action = session.lock_branch(branch, correct_value=1)
        assert action.kind == "branch"
        assert isinstance(branch.cond, ast.BinaryOp)
        assert branch.cond.op == "^"
        assert mixer_design.key_bits[0].kind == "branch"
        assert branch.cond is not original_cond

    def test_branch_lock_keeps_condition_on_zero(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        branch = [node for node in mixer_design.top.iter_tree()
                  if isinstance(node, ast.IfStatement)][1]
        cond_text_before = mixer_design.to_verilog()
        action = session.lock_branch(branch, correct_value=0)
        assert action.key_bits[0].correct_value == 0
        # With value 0 the original comparison survives inside the XOR.
        assert "(a > b)" in mixer_design.to_verilog()

    def test_relational_negation(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        branch = [node for node in mixer_design.top.iter_tree()
                  if isinstance(node, ast.IfStatement)][1]
        session.lock_branch(branch, correct_value=1)
        # 'a > b' must be inverted to 'a <= b' (paper's example).
        assert "(a <= b)" in mixer_design.to_verilog()


class TestConstantLocking:
    def test_constant_lock_multi_bit(self, rng):
        module_text = """
        module consts (input [7:0] a, output [7:0] y);
          assign y = a + 8'h5A;
        endmodule
        """
        design = Design.from_verilog(module_text)
        session = LockingSession(design, rng=rng)
        assign = design.top.items[0]
        constant = assign.rhs.right
        action = session.lock_constant(assign.rhs, constant)
        assert action.bits_used == 8
        assert design.key_width == 8
        # The correct key bits spell the hidden constant 0x5A.
        value = sum(bit.correct_value << i for i, bit in enumerate(design.key_bits))
        assert value == 0x5A
        assert "8'h5a" not in design.to_verilog().lower()

    def test_constant_lock_single_bit(self, rng):
        design = Design.from_verilog(
            "module c1 (input a, output y); assign y = a ^ 1'b1; endmodule")
        session = LockingSession(design, rng=rng)
        assign = design.top.items[0]
        action = session.lock_constant(assign.rhs, assign.rhs.right)
        assert action.bits_used == 1
        assert design.key_bits[0].correct_value == 1

    def test_constant_with_unknown_bits_rejected(self, rng):
        design = Design.from_verilog(
            "module cx (input [3:0] a, output [3:0] y); assign y = a & 4'b1x0x; endmodule")
        session = LockingSession(design, rng=rng)
        assign = design.top.items[0]
        with pytest.raises(LockingError):
            session.lock_constant(assign.rhs, assign.rhs.right)
        assert design.key_width == 0


class TestUndo:
    def test_undo_operation_restores_text_and_odt(self, mixer_design, rng):
        original_text = mixer_design.to_verilog()
        session = LockingSession(mixer_design, rng=rng)
        original_odt = session.odt["+"]
        action = session.add_pair(session.ops_of_type("+")[0])
        session.undo(action)
        assert mixer_design.to_verilog() == original_text
        assert mixer_design.key_width == 0
        assert mixer_design.key_port is None
        assert session.odt["+"] == original_odt
        assert len(session.ops_of_type("-")) == 1  # only the original '-'

    def test_undo_branch_and_constant(self, rng):
        design = Design.from_verilog("""
        module m (input [3:0] a, b, output reg [3:0] y);
          always @(*) begin
            if (a > b) y = a + 4'd3; else y = b;
          end
        endmodule
        """)
        original = design.to_verilog()
        session = LockingSession(design, rng=rng)
        branch = [n for n in design.top.iter_tree()
                  if isinstance(n, ast.IfStatement)][0]
        action = session.lock_branch(branch)
        session.undo(action)
        assert design.to_verilog() == original

    def test_undo_must_be_lifo(self, session):
        first = session.add_pair(session.ops_of_type("+")[0])
        session.add_pair(session.ops_of_type("*")[0])
        with pytest.raises(LockingError):
            session.undo(first)

    def test_undo_last_multiple(self, mixer_design, rng):
        original = mixer_design.to_verilog()
        session = LockingSession(mixer_design, rng=rng)
        session.add_pair(session.ops_of_type("+")[0])
        session.add_pair(session.ops_of_type("*")[0])
        session.undo_last(2)
        assert mixer_design.to_verilog() == original

    def test_undo_with_nothing_to_undo(self, session):
        with pytest.raises(LockingError):
            session.undo_last(1)

    def test_undo_removes_its_own_ref_among_equal_twins(self, session):
        action = session.add_pair(session.ops_of_type("+")[0])
        dummy = action.dummy_ref
        twin = dataclasses.replace(dummy)
        # Register the twin ahead of the dummy: a by-value ``list.remove``
        # would drop the twin and leave the undone dummy registered.
        session._ops.insert(0, twin)
        session._ops_by_type[twin.op].insert(0, twin)
        session.undo(action)
        assert any(ref is twin for ref in session.all_ops())
        assert any(ref is twin for ref in session.ops_of_type(twin.op))
        assert all(ref is not dummy for ref in session.all_ops())
        assert all(ref is not dummy for ref in session.ops_of_type(dummy.op))

    def test_out_of_order_unregister_rejected(self, session):
        first = session.add_pair(session.ops_of_type("+")[0])
        session.add_pair(session.ops_of_type("*")[0])
        registry = session.all_ops()
        with pytest.raises(LockingError):
            session._unregister(first.dummy_ref)
        assert session.all_ops() == registry

    def test_undoing_a_relock_round_keeps_the_actions_before_it(
            self, mixer_design):
        target = AssureLocker("serial", rng=random.Random(0)).lock(
            mixer_design, key_budget=2).design
        session = LockingSession(target.copy())
        session.add_pair(session.ops_of_type("+")[0])
        locked_text = session.design.to_verilog()
        actions = AssureLocker("random", rng=random.Random(7)).relock(
            session, key_budget=2)
        assert len(actions) == 2
        session.undo_last(len(actions))
        assert len(session.actions) == 1
        assert session.design.to_verilog() == locked_text

    def test_undoing_a_relock_round_restores_the_session(self, mixer_design):
        target = AssureLocker("serial", rng=random.Random(0)).lock(
            mixer_design, key_budget=2).design
        session = LockingSession(target.copy())
        design = session.design
        fingerprint = design.fingerprint()
        registry = _registry(session)
        by_type = {op: [id(ref) for ref in session.ops_of_type(op)]
                   for op in ("+", "-", "*", "/", "<<", ">>", "^", "&", "|")}
        counts, unpaired, _ = _odt_state(session.odt)
        counts, unpaired = dict(counts), dict(unpaired)

        actions = AssureLocker("random", rng=random.Random(7)).relock(
            session, key_budget=6)
        assert len(actions) == 6
        assert _key_port_width(design) == design.key_width == 8
        session.undo_last(len(actions))

        assert session.actions == []
        assert design._fingerprint is None
        assert design.fingerprint() == fingerprint
        assert design.to_verilog() == target.to_verilog()
        assert design.key_bits == target.key_bits
        assert design.key_port == target.key_port
        assert _key_port_width(design) == design.key_width == 2
        # Same registry entries, same objects, same order: a fresh session
        # on the restored design would register exactly these.
        assert _registry(session) == registry
        assert _registry(session) == _registry(LockingSession(design))
        for op, refs in by_type.items():
            assert [id(ref) for ref in session.ops_of_type(op)] == refs
        # Undo restores the ODT counts; affected marks stay set.
        assert _odt_state(session.odt)[:2] == (counts, unpaired)


def _key_port_width(design):
    return design.top.find_port(design.key_port).width.width()


def _registry(session):
    return [(id(ref.node), ref.op, id(ref.parent), ref.is_dummy,
             ref.lock_count) for ref in session.all_ops()]


def _odt_state(odt):
    return odt._counts, odt._unpaired, odt._affected


class TestKeyPortWidth:
    """Every public primitive leaves the key port ``key_width`` bits wide."""

    def test_standalone_primitives(self, rng):
        design = Design.from_verilog("""
        module m (input [3:0] a, b, output reg [3:0] y, output [3:0] z);
          assign z = (a + b) ^ (a - b);
          always @(*) begin
            if (a > b) y = a + 4'd3; else y = b;
          end
        endmodule
        """)
        session = LockingSession(design, rng=rng)
        session.add_pair(session.ops_of_type("+")[0])
        assert _key_port_width(design) == design.key_width == 1
        session.add_pair(session.ops_of_type("-")[0])
        assert _key_port_width(design) == design.key_width == 2
        branch = [n for n in design.top.iter_tree()
                  if isinstance(n, ast.IfStatement)][0]
        session.lock_branch(branch)
        assert _key_port_width(design) == design.key_width == 3
        constant = [n for n in design.top.iter_tree()
                    if isinstance(n, ast.IntConst) and n.value == "4'd3"][0]
        parent = [n for n in design.top.iter_tree()
                  if any(c is constant for c in n.children())][0]
        session.lock_constant(parent, constant)
        assert _key_port_width(design) == design.key_width == 7
        session.undo_last(2)
        assert _key_port_width(design) == design.key_width == 2
        assert "[1:0]" in design.to_verilog()

    def test_second_session_on_the_same_design(self, mixer_design, rng):
        first = LockingSession(mixer_design, rng=rng)
        first.add_pair(first.ops_of_type("+")[0])
        second = LockingSession(mixer_design, rng=random.Random(9))
        second.add_pair(second.ops_of_type("*")[0])
        first.add_pair(first.ops_of_type("-")[0])
        assert _key_port_width(mixer_design) == mixer_design.key_width == 3


class TestRelockingSessions:
    def test_session_on_locked_design_preserves_existing_bits(self, mixer_design, rng):
        first = LockingSession(mixer_design, rng=rng)
        first.add_pair(first.ops_of_type("+")[0])
        second = LockingSession(mixer_design, rng=random.Random(9))
        second.add_pair(second.ops_of_type("*")[0])
        assert mixer_design.key_width == 2
        assert [bit.index for bit in mixer_design.key_bits] == [0, 1]

    def test_existing_locks_marked_affected(self, mixer_design, rng):
        first = LockingSession(mixer_design, rng=rng)
        first.add_pair(first.ops_of_type("+")[0])
        second = LockingSession(mixer_design, rng=random.Random(9))
        assert second.odt.is_affected("+")
