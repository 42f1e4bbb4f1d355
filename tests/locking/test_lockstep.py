"""Unit tests for the common locking step (Algorithm 1)."""

import random

import pytest

from repro.locking import LockingError, LockingSession, lock_step
from repro.locking.lockstep import plan_step
from repro.rtlir import Design


IMBALANCED_SOURCE = """
module imb (input [7:0] a, b, c, output [7:0] x, y);
  wire [7:0] t0 = a + b;
  wire [7:0] t1 = t0 + c;
  wire [7:0] t2 = t1 + a;
  wire [7:0] t3 = a - b;
  assign x = t2;
  assign y = t3;
endmodule
"""


@pytest.fixture
def imbalanced_session(rng):
    return LockingSession(Design.from_verilog(IMBALANCED_SOURCE), rng=rng)


class TestPositiveImbalance:
    def test_excess_type_gets_dummy_partner(self, imbalanced_session):
        session = imbalanced_session
        assert session.odt["+"] == 2
        bits = lock_step(session, "+", pair_mode=False)
        assert bits == 1
        [key_bit] = session.design.key_bits
        assert key_bit.real_op == "+"
        assert key_bit.dummy_op == "-"
        assert session.odt["+"] == 1

    def test_repeated_steps_reach_balance(self, imbalanced_session):
        session = imbalanced_session
        total = 0
        while abs(session.odt["+"]) > 0:
            total += lock_step(session, "+")
        assert total == 2
        assert session.odt.is_balanced("+")


class TestNegativeImbalance:
    def test_deficit_type_added_as_dummy(self, imbalanced_session):
        session = imbalanced_session
        # '-' is the under-represented type (ODT[-] == -2): a '-' dummy must be
        # paired with an existing '+' operation.
        assert session.odt["-"] == -2
        bits = lock_step(session, "-", pair_mode=False)
        assert bits == 1
        [key_bit] = session.design.key_bits
        assert key_bit.real_op == "+"
        assert key_bit.dummy_op == "-"
        assert session.odt["-"] == -1


class TestPairMode:
    def test_pair_mode_locks_both_directions(self, imbalanced_session):
        session = imbalanced_session
        before = session.odt["+"]
        bits = lock_step(session, "+", pair_mode=True)
        assert bits == 2
        assert session.design.key_width == 2
        # Balance is unchanged: one '+' dummy and one '-' dummy were added.
        assert session.odt["+"] == before

    def test_balanced_type_without_pair_mode_also_locks_both(self, rng):
        design = Design.from_verilog("""
        module bal (input [7:0] a, b, output [7:0] x, y);
          wire [7:0] t0 = a + b;
          wire [7:0] t1 = a - b;
          assign x = t0;
          assign y = t1;
        endmodule
        """)
        session = LockingSession(design, rng=rng)
        bits = lock_step(session, "+", pair_mode=False)
        assert bits == 2
        assert session.odt.is_balanced("+")

    def test_missing_operations_return_zero(self, imbalanced_session):
        bits = lock_step(imbalanced_session, "<<", pair_mode=True)
        assert bits == 0
        assert imbalanced_session.design.key_bits == []


class TestPlan:
    """``plan_step`` makes all of the step's draws; ``lock_step`` applies them."""

    @pytest.mark.parametrize("lock_type,pair_mode",
                             [("+", False), ("-", False), ("+", True)])
    def test_plan_leaves_the_session_alone(self, imbalanced_session,
                                           lock_type, pair_mode):
        session = imbalanced_session
        design = session.design
        text = design.to_verilog()
        odt_text = session.odt.to_text()
        registry = [id(ref) for ref in session.all_ops()]
        locks = plan_step(session, lock_type, pair_mode=pair_mode)
        assert len(locks) == (2 if pair_mode else 1)
        assert design.to_verilog() == text
        assert design.key_width == 0
        assert session.odt.to_text() == odt_text
        assert [id(ref) for ref in session.all_ops()] == registry

    @pytest.mark.parametrize("lock_type,pair_mode",
                             [("+", False), ("-", False), ("+", True)])
    def test_lock_step_applies_its_plan(self, lock_type, pair_mode):
        planned = _imbalanced(seed=3)
        applied = _imbalanced(seed=3)
        locks = plan_step(planned, lock_type, pair_mode=pair_mode)
        bits = lock_step(applied, lock_type, pair_mode=pair_mode)
        key_bits = applied.design.key_bits
        assert bits == len(key_bits) == len(locks)
        position = {id(ref): index
                    for index, ref in enumerate(planned.all_ops())}
        for (ref, dummy_op, value), key_bit in zip(locks, key_bits):
            assert ((ref.op, dummy_op, value)
                    == (key_bit.real_op, key_bit.dummy_op,
                        key_bit.correct_value))
            # lock_step locked the operation the plan drew (the registry
            # only appends, so positions stay valid).
            assert applied.all_ops()[position[id(ref)]].lock_count == 1
        # The plan made every draw of the step: applying it draws nothing.
        assert planned.rng.getstate() == applied.rng.getstate()

    @pytest.mark.parametrize("lock_type,pair_mode",
                             [("+", False), ("-", False), ("+", True)])
    def test_plan_draws_key_values_after_the_operations(self, lock_type,
                                                        pair_mode):
        session = _imbalanced(seed=5)
        partner = session.pair_table.dummy_of(lock_type)
        replay = random.Random(5)
        chosen = [replay.choice(session.ops_of_type(lock_type)),
                  replay.choice(session.ops_of_type(partner))]
        locks = plan_step(session, lock_type, pair_mode=pair_mode)
        assert {id(ref) for ref, _, _ in locks} <= {id(ref) for ref in chosen}
        assert ([value for _, _, value in locks]
                == [replay.randint(0, 1) for _ in locks])
        assert session.rng.getstate() == replay.getstate()

    def test_missing_operations_plan_nothing(self, imbalanced_session):
        assert plan_step(imbalanced_session, "<<", pair_mode=True) == []

    def test_inconsistent_odt_detected(self, imbalanced_session):
        session = imbalanced_session
        # Corrupt the ODT so it claims an excess of '<<' with no such ops.
        session.odt.add_operation("<<")
        with pytest.raises(LockingError):
            plan_step(session, "<<", pair_mode=False)
        with pytest.raises(LockingError):
            lock_step(session, "<<", pair_mode=False)
        assert session.design.key_width == 0


def _imbalanced(seed):
    design = Design.from_verilog(IMBALANCED_SOURCE)
    return LockingSession(design, rng=random.Random(seed))
