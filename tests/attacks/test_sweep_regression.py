"""Regression pins: the sweep fast path changes *speed*, never *numbers*.

`functional_kpa`, `key_bit_sensitivity`, `functional_corruption` and
`avalanche_sensitivity` moved from per-key batch loops onto bit-parallel
sweeps (plus the process-wide plan cache), and then onto counting the
differences on the bit-sliced outputs.  Every one of them must produce results identical to the pre-sweep implementation on
seeded runs — asserted here both against the scalar engine (forced through
`sweep_differences`, the sweep entry point the consumers call) and against
literal pinned values.
"""

import random

import pytest

import repro.sim as sim_package
from repro.attacks.kpa import functional_kpa
from repro.bench import load_benchmark
from repro.locking import (
    AssureLocker,
    avalanche_sensitivity,
    functional_corruption,
    key_bit_sensitivity,
)
from repro.rtlir import Design, KeyBit
from repro.sim import (CombinationalSimulator, batch_to_vectors,
                       random_input_batch, sweep_differences)
from tests.helpers import EquivalenceReport, check_equivalence, flip_bits
from tests.sim.test_batch_regression import refuse_plans

#: Pinned literals (exact rationals of deterministic integer simulations).
PINNED_WRONG_KEY_FKPA = 3.125
PINNED_SENSITIVITY = [0.8125, 0.0, 0.0, 0.0]


def _run_on_both_engines(fn):
    """Run ``fn`` once on the batch sweep and once forced through scalar.

    :func:`repro.sim.sweep_differences` is replaced by
    :meth:`CombinationalSimulator.sweep_differences`; the run must call it,
    or it would compare batch to batch.
    """
    batch_result = fn()
    original_differences = sim_package.sweep_differences
    forced = []

    def scalar_differences(design, inputs, keys=None, bindings=None, n=None):
        forced.append("sweep_differences")
        return CombinationalSimulator(design).sweep_differences(
            inputs, keys=keys, bindings=bindings, n=n)

    sim_package.sweep_differences = scalar_differences
    try:
        scalar_result = fn()
    finally:
        sim_package.sweep_differences = original_differences
    assert forced, "the scalar run never reached sweep_differences"
    return batch_result, scalar_result


def _locked_md5(seed=0, scale=0.15):
    design = load_benchmark("MD5", scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    return AssureLocker("serial", rng=random.Random(seed),
                        track_metrics=False).lock(design, budget).design


class TestSeededResultsMatchScalarEngine:
    def test_functional_kpa(self):
        locked = _locked_md5()
        wrong = flip_bits(locked.correct_key, range(0, locked.key_width, 3))
        batch_value, scalar_value = _run_on_both_engines(
            lambda: functional_kpa(locked, wrong, vectors=24,
                                   rng=random.Random(7)))
        assert batch_value == scalar_value

    def test_key_bit_sensitivity(self):
        locked = _locked_md5()
        batch_profile, scalar_profile = _run_on_both_engines(
            lambda: key_bit_sensitivity(locked, vectors=16,
                                        rng=random.Random(8)))
        assert batch_profile == scalar_profile

    def test_functional_corruption(self):
        locked = _locked_md5()
        batch_report, scalar_report = _run_on_both_engines(
            lambda: functional_corruption(locked, vectors=16, wrong_keys=3,
                                          rng=random.Random(9)))
        assert batch_report.per_key_rates == scalar_report.per_key_rates
        assert batch_report.avalanche == scalar_report.avalanche

    @pytest.mark.parametrize("wrong_key", [False, True])
    def test_avalanche_sensitivity(self, wrong_key):
        locked = _locked_md5()
        key = flip_bits(locked.correct_key, range(0, locked.key_width, 2)) \
            if wrong_key else None
        batch_report, scalar_report = _run_on_both_engines(
            lambda: avalanche_sensitivity(locked, vectors=16, key=key,
                                          rng=random.Random(10)))
        assert batch_report == scalar_report
        assert any(batch_report.per_bit)


class TestPinnedValues:
    """Literal pins of seeded runs — any drift is a semantics change."""

    def test_functional_kpa_pinned(self):
        locked = _locked_md5()
        assert functional_kpa(locked, locked.correct_key, vectors=32,
                              rng=random.Random(0)) == 100.0
        wrong = flip_bits(locked.correct_key, range(locked.key_width))
        value = functional_kpa(locked, wrong, vectors=32,
                               rng=random.Random(0))
        assert value == PINNED_WRONG_KEY_FKPA

    def test_key_bit_sensitivity_pinned(self):
        locked = _locked_md5()
        profile = key_bit_sensitivity(locked, vectors=16,
                                      rng=random.Random(1))
        assert profile[:4] == PINNED_SENSITIVITY

    def test_functional_kpa_correct_key_scores_full(self):
        locked = _locked_md5()
        assert functional_kpa(locked, locked.correct_key, vectors=24,
                              rng=random.Random(2)) == 100.0


# ---------------------------------------------------------------------------
# Scalar fallback of the high-level checks on uncompilable designs
# ---------------------------------------------------------------------------


UNCOMPILABLE = """
module oddball (input [3:0] a, input [1:0] n, input [1:0] lock_key,
                output [7:0] y, output [3:0] z);
  wire [3:0] t = lock_key[0] ? (a + 1) : (a - 1);
  assign y = {n{a}};
  assign z = lock_key[1] ? t : (t ^ 4'b0101);
endmodule
"""

UNCOMPILABLE_ORIGINAL = """
module oddball_ref (input [3:0] a, input [1:0] n,
                    output [7:0] y, output [3:0] z);
  assign y = {n{a}};
  assign z = a + 1;
endmodule
"""


def _oddball_locked():
    design = Design.from_verilog(UNCOMPILABLE)
    design.key_port = "lock_key"
    design.key_bits = [
        KeyBit(index=0, kind="operation", correct_value=1),
        KeyBit(index=1, kind="operation", correct_value=1),
    ]
    return design


def scalar_report(original, locked, key, vectors, rng):
    """The report of :func:`check_equivalence`, from
    :class:`CombinationalSimulator` called directly, one vector at a time."""
    reference = CombinationalSimulator(original)
    candidate = CombinationalSimulator(locked)
    common = set(reference.output_names) & set(candidate.output_names)
    inputs = batch_to_vectors(random_input_batch(original, rng, vectors),
                              vectors)
    mismatches, first = 0, None
    for vector in inputs:
        expected = reference.run(vector)
        actual = candidate.run(vector, key=key)
        diff = sorted(name for name in common
                      if expected[name] != actual[name])
        if diff:
            mismatches += 1
            first = first or {"inputs": vector, "outputs": diff,
                              "expected": {n: expected[n] for n in diff},
                              "actual": {n: actual[n] for n in diff}}
    return EquivalenceReport(vectors, mismatches, first)


#: Checks of the uncompilable design held as data: (id, bits flipped in
#: the correct key, vectors, seed).  Both designs take the scalar path.
FALLBACK_CASES = [
    ("correct-key", (), 24, 3),
    ("flip-bit-0", (0,), 24, 4),
    ("flip-bit-1", (1,), 7, 5),
    ("flip-both", (0, 1), 24, 6),
    ("one-vector", (0, 1), 1, 7),
]


class TestUncompilableDesignFallback:
    @pytest.mark.parametrize("flips,vectors,seed",
                             [case[1:] for case in FALLBACK_CASES],
                             ids=[case[0] for case in FALLBACK_CASES])
    def test_check_equivalence_matches_scalar_engine(self, flips, vectors,
                                                     seed):
        original = Design.from_verilog(UNCOMPILABLE_ORIGINAL)
        locked = _oddball_locked()
        key = flip_bits(locked.correct_key, list(flips))
        report = check_equivalence(original, locked, key=key,
                                   vectors=vectors, rng=random.Random(seed))
        assert report == scalar_report(original, locked, key, vectors,
                                       random.Random(seed))
        assert report.equivalent == (not flips)

    @pytest.mark.parametrize("flips,vectors,seed",
                             [case[1:] for case in FALLBACK_CASES],
                             ids=[case[0] for case in FALLBACK_CASES])
    def test_sweep_differences_matches_scalar_engine(self, flips, vectors,
                                                     seed):
        locked = _oddball_locked()
        correct = locked.correct_key
        batch = random_input_batch(locked, random.Random(seed), vectors)
        keys = [correct, flip_bits(correct, list(flips)), correct]
        counted = sweep_differences(locked, batch, keys=keys, n=vectors)
        assert counted == CombinationalSimulator(locked).sweep_differences(
            batch, keys=keys, n=vectors)
        assert counted.lanes[1] == counted.bits[1] == 0
        assert (counted.lanes[0] > 0) == bool(flips)

    def test_refused_plans_take_the_same_path(self, monkeypatch):
        """A design the compiler refuses gives the batch engine's report and
        counts on the scalar engine."""
        original = load_benchmark("MD5", scale=0.15, seed=0)
        locked = _locked_md5()
        wrong = flip_bits(locked.correct_key, range(0, locked.key_width, 2))
        batch = random_input_batch(locked, random.Random(8), 24)
        keys = [locked.correct_key, wrong]
        fast = (check_equivalence(original, locked, key=wrong, vectors=24,
                                  rng=random.Random(9)),
                sweep_differences(locked, batch, keys=keys, n=24))
        refused = refuse_plans(monkeypatch)
        slow = (check_equivalence(original, locked, key=wrong, vectors=24,
                                  rng=random.Random(9)),
                sweep_differences(locked, batch, keys=keys, n=24))
        assert refused == [original, locked, locked]
        assert fast == slow
        assert not fast[0].equivalent and fast[1].lanes[0] > 0

    def test_metric_consumers_fall_back_per_key(self):
        locked = _oddball_locked()
        profile = key_bit_sensitivity(locked, vectors=12,
                                      rng=random.Random(5))
        assert len(profile) == 2
        assert any(value > 0.0 for value in profile)
        value = functional_kpa(locked, flip_bits(locked.correct_key, [1]),
                               vectors=12, rng=random.Random(6))
        assert 0.0 <= value < 100.0
