"""Property-based tests on locking invariants (hypothesis)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import profile_design
from repro.bench.profiles import BenchmarkProfile
from repro.locking import (
    AssureLocker,
    ERALocker,
    HRALocker,
    LockingSession,
    default_pair_table,
    global_metric,
    lock_step,
    odt_from_design,
)
from repro.locking.lockstep import plan_step

#: Operators the random profiles draw from (kept small so designs stay tiny).
_PROFILE_OPS = ["+", "-", "*", "/", "<<", ">>", "&", "|", "^", "=="]


@st.composite
def small_profiles(draw):
    """Random small operation profiles (3-30 operations over 1-4 types)."""
    n_types = draw(st.integers(min_value=1, max_value=4))
    operators = draw(st.permutations(_PROFILE_OPS))[:n_types]
    operations = {}
    for op in operators:
        operations[op] = draw(st.integers(min_value=1, max_value=8))
    return BenchmarkProfile(name="hyp_profile", description="hypothesis profile",
                            operations=operations, sequential=False, n_inputs=4)


def build_design(profile, seed):
    return profile_design(profile, seed=seed)


class TestSessionInvariants:
    @given(profile=small_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_planned_step_scores_like_the_applied_step(self, profile, seed):
        # HRA scores a trial on the plan; the counts it scores must be the
        # ones the applied step leaves, with the design untouched.
        design = build_design(profile, seed)
        text = design.to_verilog()
        for lock_type, _ in default_pair_table().unordered_pairs():
            planned = LockingSession(design, rng=random.Random(seed))
            applied = LockingSession(design.copy(), rng=random.Random(seed))
            initial = planned.odt.vector()
            locks = plan_step(planned, lock_type)
            trial = planned.odt.with_operations(op for _, op, _ in locks)
            bits = lock_step(applied, lock_type)
            assert bits == len(locks)
            assert ([(op, value) for _, op, value in locks]
                    == [(key_bit.dummy_op, key_bit.correct_value)
                        for key_bit in applied.design.key_bits])
            assert list(trial.vector()) == list(applied.odt.vector())
            assert (global_metric(trial, initial)
                    == global_metric(applied.odt, initial))
            assert design.to_verilog() == text
            assert design.key_width == 0

    @given(profile=small_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_locking_adds_exactly_one_operation_per_bit(self, profile, seed):
        design = build_design(profile, seed)
        total_before = design.num_operations()
        budget = min(5, total_before)
        result = AssureLocker("random", rng=random.Random(seed),
                              track_metrics=False).lock(design, budget)
        assert result.design.num_operations() == total_before + result.bits_used

    @given(profile=small_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=30, deadline=None)
    def test_odt_antisymmetry_preserved_by_locking(self, profile, seed):
        design = build_design(profile, seed)
        result = AssureLocker("random", rng=random.Random(seed),
                              track_metrics=False).lock(design, 4)
        odt = odt_from_design(result.design)
        for first, second in odt.pairs():
            assert odt.value(first) == -odt.value(second)


class TestAlgorithmInvariants:
    @given(profile=small_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_era_balances_every_affected_pair(self, profile, seed):
        design = build_design(profile, seed)
        budget = max(1, int(0.75 * design.num_operations()))
        result = ERALocker(rng=random.Random(seed),
                           track_metrics=False).lock(design, budget)
        odt = odt_from_design(result.design)
        affected = set()
        for bit in result.design.key_bits:
            affected.add(bit.real_op)
            affected.add(bit.dummy_op)
        for first, second in odt.pairs():
            if first in affected or second in affected:
                assert odt.value(first) == 0

    @given(profile=small_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_hra_respects_budget_within_one_step(self, profile, seed):
        design = build_design(profile, seed)
        budget = max(1, design.num_operations() // 2)
        result = HRALocker(rng=random.Random(seed),
                           track_metrics=False).lock(design, budget)
        assert result.bits_used <= budget + 1

    @given(profile=small_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_correct_key_width_matches_key_bits(self, profile, seed):
        design = build_design(profile, seed)
        result = AssureLocker("random", rng=random.Random(seed),
                              track_metrics=False).lock(design, 3)
        locked = result.design
        assert len(locked.correct_key) == locked.key_width
        for bit in locked.key_bits:
            assert locked.correct_key[bit.index] == bit.correct_value

