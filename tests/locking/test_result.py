"""Unit tests for the LockResult container."""

import random

from repro.locking import AssureLocker, ERALocker
from repro.locking.result import LockResult
from repro.rtlir import Design, KeyBit

from ..conftest import MIXER_SOURCE


class TestLockResult:
    def test_correct_key_lists_new_bits_only(self, mixer_design, rng):
        first = AssureLocker("serial", rng=rng).lock(mixer_design, 3)
        relock = AssureLocker("random", rng=random.Random(1)).lock(
            first.design, 2)
        assert len(relock.correct_key) == 2
        assert relock.correct_key == [bit.correct_value
                                      for bit in relock.design.key_bits[3:]]

    def test_only_era_may_exceed_the_budget(self, plus_chain_design, rng):
        era = ERALocker(rng=rng).lock(plus_chain_design, 2)
        assert era.bits_used > era.key_budget == 2
        assure = AssureLocker("serial", rng=random.Random(2)).lock(
            plus_chain_design, 2)
        assert assure.bits_used == assure.key_budget == 2

    def test_summary_without_tracker(self):
        design = Design.from_verilog(MIXER_SOURCE)
        result = LockResult(design=design, algorithm="manual", key_budget=4,
                            bits_used=4,
                            new_key_bits=[KeyBit(0, "operation", 1, "+", "-")])
        text = result.summary()
        assert "manual" in text
        assert "4/4" in text
        assert "M_g_sec" not in text

    def test_summary_with_tracker(self, mixer_design, rng):
        result = AssureLocker("serial", rng=rng).lock(mixer_design, 3)
        text = result.summary()
        assert "M_g_sec" in text and "M_r_sec" in text
