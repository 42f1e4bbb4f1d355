"""Unit tests for the core locking primitives (LockingSession)."""

import random

import pytest

from repro.locking import LockingError, LockingSession
from repro.rtlir import Design
from repro.rtlir.design import DEFAULT_KEY_PORT
from repro.verilog import ast


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
        assert (action.real_op, action.dummy_op) == ("+", "-")
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


class TestKeyValues:
    @pytest.mark.parametrize("value", [2, -1])
    def test_key_value_other_than_0_or_1_rejected(self, mixer_design, rng,
                                                  value):
        session = LockingSession(mixer_design, rng=rng)
        text = mixer_design.to_verilog()
        registry = _registry(session)
        with pytest.raises(LockingError):
            session.add_pair(session.ops_of_type("+")[0], correct_value=value)
        _assert_unchanged(session, text, registry)

    def test_omitted_key_value_is_drawn_from_the_session_rng(self,
                                                             mixer_design):
        session = LockingSession(mixer_design, rng=random.Random(7))
        for ref in session.ops_of_type("+"):
            session.add_pair(ref)
        replay = random.Random(7)
        assert ([bit.correct_value for bit in mixer_design.key_bits]
                == [replay.randint(0, 1) for _ in range(3)])

    def test_given_key_value_draws_nothing(self, mixer_design):
        rng = random.Random(7)
        session = LockingSession(mixer_design, rng=rng)
        for value, ref in zip((1, 0, 1), session.ops_of_type("+")):
            session.add_pair(ref, correct_value=value)
        assert [bit.correct_value for bit in mixer_design.key_bits] == [1, 0, 1]
        assert rng.random() == random.Random(7).random()

    def test_key_bit_records_the_pair(self, session, mixer_design):
        action = session.add_pair(session.ops_of_type("*")[0],
                                  correct_value=0)
        bit = mixer_design.key_bits[0]
        assert action.key_bits == [bit]
        assert (bit.index, bit.kind, bit.correct_value, bit.real_op,
                bit.dummy_op) == (0, "operation", 0, "*", "/")
        assert (action.real_op, action.dummy_op) == ("*", "/")


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
    """``add_pair`` leaves the key port ``key_width`` bits wide."""

    def test_each_add_pair_widens_the_port_by_one_bit(self, rng):
        design = Design.from_verilog("""
        module m (input [3:0] a, b, output [3:0] z);
          assign z = (a + b) ^ (a - b);
        endmodule
        """)
        session = LockingSession(design, rng=rng)
        plus = session.ops_of_type("+")[0]
        session.add_pair(plus)
        assert _key_port_width(design) == design.key_width == 1
        session.add_pair(session.ops_of_type("-")[0])
        assert _key_port_width(design) == design.key_width == 2
        # Relocking the now nested real operation.
        session.add_pair(plus)
        assert _key_port_width(design) == design.key_width == 3
        assert "[2:0]" in design.to_verilog()

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
