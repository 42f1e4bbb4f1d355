"""Unit tests for HRA (Heuristic ML-Resilient Algorithm) and the Greedy variant."""

import random

import pytest

from repro.bench import plus_network
from repro.eval.figures import figure5_design
from repro.locking import (
    ORIGINAL_ASSURE_TABLE,
    HRALocker,
    LockingSession,
    global_metric,
    lock_step,
    odt_from_design,
)
from repro.locking.lockstep import valid_pairs
from repro.rtlir import Design


class TestBudgetDiscipline:
    def test_budget_not_exceeded_by_more_than_one_step(self, mixer_design, rng):
        budget = 6
        result = HRALocker(rng=rng).lock(mixer_design, key_budget=budget)
        # The last step may add two bits (pair mode), never more.
        assert budget <= result.bits_used <= budget + 1

    def test_zero_budget(self, mixer_design, rng):
        result = HRALocker(rng=rng).lock(mixer_design, key_budget=0)
        assert result.bits_used == 0

    def test_negative_budget_rejected(self, mixer_design, rng):
        with pytest.raises(ValueError):
            HRALocker(rng=rng).lock(mixer_design, key_budget=-1)

    def test_input_not_mutated(self, mixer_design, rng):
        before = mixer_design.to_verilog()
        HRALocker(rng=rng).lock(mixer_design, key_budget=5)
        assert mixer_design.to_verilog() == before


class TestMetricGuidance:
    def test_global_metric_never_decreases(self, rng):
        design = figure5_design(12, 5, seed=1)
        result = HRALocker(rng=rng).lock(design, key_budget=30)
        values = [p.global_value for p in result.tracker.points]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_hra_improves_over_initial(self, rng):
        design = plus_network(16, name="plus16")
        result = HRALocker(rng=rng).lock(design, key_budget=12)
        assert result.tracker.final_global > 0.0

    def test_greedy_reaches_full_security_with_exact_budget(self):
        design = figure5_design(10, 4, seed=2)
        locker = HRALocker(rng=random.Random(0), greedy=True)
        result = locker.lock(design, key_budget=14)
        assert result.tracker.final_global == pytest.approx(100.0)
        assert result.bits_used == 14
        odt = odt_from_design(result.design)
        assert all(odt.is_balanced(first) for first, _ in odt.pairs())

    def test_greedy_never_uses_pair_mode(self, mixer_design):
        locker = HRALocker(rng=random.Random(1), greedy=True)
        result = locker.lock(mixer_design, key_budget=6)
        assert result.statistics["random_steps"] == 0
        assert result.algorithm == "greedy"

    def test_hra_uses_random_steps_sometimes(self):
        design = figure5_design(15, 8, seed=3)
        result = HRALocker(rng=random.Random(2)).lock(design, key_budget=40)
        assert result.statistics["random_steps"] > 0
        assert result.algorithm == "hra"

    def test_greedy_needs_no_more_bits_than_hra(self):
        # Section 4.4: the greedy variant reaches full security with fewer (or
        # equal) key bits than HRA's randomised walk.
        design = figure5_design(12, 6, seed=4)
        budget = 4 * (12 + 6)

        def bits_to_full(locker):
            result = locker.lock(design, key_budget=budget)
            for point in result.tracker.points:
                if point.global_value >= 100.0 - 1e-9:
                    return point.key_bits
            return budget + 1

        greedy_bits = bits_to_full(HRALocker(rng=random.Random(5),
                                             greedy=True))
        hra_bits = bits_to_full(HRALocker(rng=random.Random(5)))
        assert greedy_bits <= hra_bits

    def test_hra_on_already_balanced_design_keeps_balance(self, rng):
        from repro.bench import alternating_network
        design = alternating_network(5, name="balanced10")
        result = HRALocker(rng=rng).lock(design, key_budget=6)
        assert odt_from_design(result.design).value("+") == 0

    def test_tracking_disabled(self, mixer_design, rng):
        result = HRALocker(rng=rng, track_metrics=False).lock(mixer_design, 4)
        assert result.tracker is None


class TestTrialSteps:
    """HRA scores its trial steps on the ODT and never edits the design."""

    def test_trials_leave_design_and_counts_alone(self, mixer_design):
        locker = HRALocker(rng=random.Random(4))
        session = LockingSession(mixer_design, rng=locker.rng)
        text = mixer_design.to_verilog()
        vector = session.odt.vector()
        registry = [id(ref) for ref in session.all_ops()]
        pairs = valid_pairs(session)
        index = locker._best_pair_index(session, pairs, vector)
        assert 0 <= index < len(pairs)
        assert mixer_design.to_verilog() == text
        assert mixer_design.key_width == 0
        assert mixer_design.key_port is None
        assert list(session.odt.vector()) == list(vector)
        assert [id(ref) for ref in session.all_ops()] == registry
        assert session.actions == []

    def test_trials_mark_their_pairs_affected(self, mixer_design):
        # A trial marks its pair affected, as locking and undoing the step
        # would; the M_r_sec series reads that mark.
        locker = HRALocker(rng=random.Random(4))
        session = LockingSession(mixer_design, rng=locker.rng)
        assert session.odt.affected_pairs() == []
        pairs = valid_pairs(session)
        locker._best_pair_index(session, pairs, session.odt.vector())
        assert sorted(session.odt.affected_pairs()) == sorted(pairs)

    def test_best_pair_has_the_best_applied_metric(self, mixer_design):
        # The chosen pair's step, applied for real, scores at least as well
        # as any other pair's step applied from the same rng state.
        locker = HRALocker(rng=random.Random(6))
        session = LockingSession(mixer_design.copy(), rng=locker.rng)
        initial = session.odt.vector()
        pairs = valid_pairs(session)
        best = locker._best_pair_index(session, pairs, initial)

        def applied_metric(index):
            trial = LockingSession(mixer_design.copy(),
                                   rng=random.Random(0))
            lock_step(trial, pairs[index][0])
            return global_metric(trial.odt, initial)

        assert applied_metric(best) == max(applied_metric(index)
                                           for index in range(len(pairs)))

    @pytest.mark.parametrize("table", [None, ORIGINAL_ASSURE_TABLE],
                             ids=["symmetric", "assure-original"])
    def test_trial_marks_what_the_applied_step_marks(self, table):
        # Under the leaky table a '*' step adds a '+' dummy, which marks
        # the ('+', '-') pair as well as ('*', '+').
        design = Design.from_verilog("""
        module marks (input [7:0] a, b, c, output [7:0] x, y);
          assign x = (a * b) * (b * c);
          assign y = (a ^ c) & b;
        endmodule
        """)
        locker = HRALocker(pair_table=table, rng=random.Random(1))
        for pair in valid_pairs(LockingSession(design, table)):
            trial = LockingSession(design.copy(), table, random.Random(2))
            locker._best_pair_index(trial, [pair], trial.odt.vector())
            applied = LockingSession(design.copy(), table, random.Random(2))
            lock_step(applied, pair[0])
            assert (trial.odt.affected_pairs()
                    == applied.odt.affected_pairs()), pair
