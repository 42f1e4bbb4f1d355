"""Property-based test: locking preserves function under the correct key.

For random combinational designs and every registered locking algorithm
(aliases included, so a plugin cannot register without passing), the
locked design driven with its correct key must be functionally equivalent
to the original design on random input vectors.  This is the core functional
contract of RTL locking (and of the AddPair/branch/constant transformations
in particular).
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import profile_design
from repro.bench.profiles import BenchmarkProfile
from repro.api.registry import locker_names, make_locker
from repro.locking import AssureLocker
from tests.helpers import check_equivalence

#: Operators drawn by the random profiles; division/modulo are included to
#: exercise the divide-by-zero convention as well.
_OPERATORS = ["+", "-", "*", "/", "^", "&", "|", "<<", ">>", "<", "==", "%"]


@st.composite
def combinational_profiles(draw):
    n_types = draw(st.integers(min_value=2, max_value=5))
    operators = draw(st.permutations(_OPERATORS))[:n_types]
    operations = {op: draw(st.integers(min_value=1, max_value=5))
                  for op in operators}
    return BenchmarkProfile(name="hyp_sim_profile",
                            description="hypothesis simulation profile",
                            operations=operations, sequential=False,
                            n_inputs=4, width=8)


class TestLockingPreservesFunction:
    @given(profile=combinational_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_correct_key_is_functionally_transparent(self, profile, seed):
        design = profile_design(profile, seed=seed)
        budget = max(1, design.num_operations() // 2)
        for algorithm in locker_names(include_aliases=True):
            locked = make_locker(algorithm, random.Random(seed)).lock(
                design, budget)
            report = check_equivalence(design, locked.design,
                                       key=locked.design.correct_key,
                                       vectors=12, rng=random.Random(seed + 1))
            assert report.equivalent, (algorithm, report.first_mismatch)

    @given(profile=combinational_profiles(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=15, deadline=None)
    def test_relocking_keeps_transparency(self, profile, seed):
        design = profile_design(profile, seed=seed)
        first = AssureLocker("random", rng=random.Random(seed),
                             track_metrics=False).lock(
            design, max(1, design.num_operations() // 3))
        second = AssureLocker("random", rng=random.Random(seed + 1),
                              track_metrics=False).lock(
            first.design, max(1, design.num_operations() // 3))
        report = check_equivalence(design, second.design,
                                   key=second.design.correct_key,
                                   vectors=10, rng=random.Random(seed + 2))
        assert report.equivalent, report.first_mismatch
