"""Unit tests for the core locking primitives (LockingSession)."""

import random

import pytest

from repro.locking import LockingError, LockingSession
from repro.rtlir import Design
from repro.rtlir.design import DEFAULT_KEY_PORT
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
        ternary = ref.parent
        assert isinstance(ternary, ast.TernaryOp)
        branch_ops = {ternary.true_value.op, ternary.false_value.op}
        assert branch_ops == {"+", "-"}

    def test_ternary_branch_matches_key_value(self, session, mixer_design):
        ref = session.ops_of_type("+")[0]
        session.add_pair(ref, correct_value=1)
        assert ref.parent.true_value is ref.node
        other = session.ops_of_type("*")[0]
        session.add_pair(other, correct_value=0)
        assert other.parent.false_value is other.node

    def test_custom_dummy_operator(self, session):
        ref = session.ops_of_type("+")[0]
        action = session.add_pair(ref, dummy_op="*")
        assert action.dummy_op == "*"
        assert ref.parent.true_value.op in {"+", "*"}

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
        session.add_pair(ref, correct_value=1)
        dummy = ref.parent.false_value
        real = ref.node
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
        text = mixer_design.to_verilog()
        registry = _registry(session)
        with pytest.raises(LockingError):
            session.add_pair(ref)
        # The failed attempt must leave the design and the session alone.
        _assert_unchanged(session, text, registry)


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

    def test_key_value_other_than_0_or_1_rejected(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        branch = [node for node in mixer_design.top.iter_tree()
                  if isinstance(node, ast.IfStatement)][0]
        text = mixer_design.to_verilog()
        registry = _registry(session)
        with pytest.raises(ValueError):
            session.lock_branch(branch, correct_value=2)
        _assert_unchanged(session, text, registry)

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
        text = design.to_verilog()
        with pytest.raises(LockingError):
            session.lock_constant(assign.rhs, assign.rhs.right)
        _assert_unchanged(session, text, _registry(session))

    def test_constant_outside_the_parent_rejected(self, rng):
        design = Design.from_verilog(
            "module cp (input [3:0] a, output [3:0] y, output [3:0] z);"
            " assign y = a & 4'd5; assign z = a | 4'd6; endmodule")
        session = LockingSession(design, rng=rng)
        first, second = design.top.items
        text = design.to_verilog()
        registry = _registry(session)
        # The constant of the second assignment is not a child of the first.
        with pytest.raises(LockingError):
            session.lock_constant(first.rhs, second.rhs.right)
        _assert_unchanged(session, text, registry)
        # The session still locks the constant where it lives.
        session.lock_constant(second.rhs, second.rhs.right)
        assert design.key_width == 4
        assert _key_port_width(design) == 4


def _assert_unchanged(session, text, registry):
    """A primitive that raised left no trace in the design or the session."""
    design = session.design
    assert design.to_verilog() == text
    assert design.key_width == 0
    assert design.key_bits == []
    assert design.key_port is None
    assert all(port.name != DEFAULT_KEY_PORT for port in design.top.ports)
    assert session.actions == []
    assert _registry(session) == registry


def _key_port_width(design):
    return design.top.find_port(design.key_port).width.width()


def _registry(session):
    return [(id(ref.node), ref.op, id(ref.parent), ref.is_dummy,
             ref.lock_count) for ref in session.all_ops()]


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
        assert "[6:0]" in design.to_verilog()

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
