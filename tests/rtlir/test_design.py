"""Unit tests for the Design wrapper and KeyBit records."""

import pytest

from repro.locking import AssureLocker
from repro.rtlir import Design, KeyBit

from ..conftest import MIXER_SOURCE


class TestConstruction:
    def test_from_verilog_defaults(self):
        design = Design.from_verilog(MIXER_SOURCE)
        assert design.top_name == "mixer"
        assert design.name == "mixer"
        assert not design.is_locked
        assert design.key_width == 0

    def test_from_file(self, tmp_path):
        path = tmp_path / "mixer.v"
        path.write_text(MIXER_SOURCE)
        design = Design.from_file(path)
        assert design.name == "mixer"
        assert design.num_operations() == 10

    def test_explicit_top_selection(self):
        source = MIXER_SOURCE + "\nmodule helper (); endmodule\n"
        design = Design.from_verilog(source, top_name="helper")
        assert design.top.name == "helper"

    def test_unknown_top_raises(self):
        with pytest.raises(ValueError):
            Design.from_verilog(MIXER_SOURCE, top_name="missing")

    def test_empty_source_raises(self):
        with pytest.raises(Exception):
            Design.from_verilog("")


class TestKeyBits:
    def test_key_bit_validation(self):
        with pytest.raises(ValueError):
            KeyBit(index=0, kind="bogus", correct_value=1)
        with pytest.raises(ValueError):
            KeyBit(index=0, kind="operation", correct_value=2)

    def test_correct_key_ordering(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        key = locked.correct_key
        assert len(key) == 4
        for bit in locked.key_bits:
            assert key[bit.index] == bit.correct_value

    def test_correct_key_string_msb_first(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 3).design
        text = locked.correct_key_string()
        assert len(text) == 3
        assert text == "".join(str(b) for b in reversed(locked.correct_key))

    def test_key_names(self, mixer_design, rng):
        assert mixer_design.key_names() == set()
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 1).design
        assert locked.key_names() == {locked.key_port}


class TestCopyAndSerialisation:
    def test_copy_is_independent(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 3).design
        duplicate = locked.copy()
        duplicate.key_bits.pop()
        duplicate.top.items.pop()
        assert locked.key_width == 3
        assert len(locked.top.items) != len(duplicate.top.items)

    def test_to_verilog_round_trips(self, mixer_design):
        text = mixer_design.to_verilog()
        again = Design.from_verilog(text)
        assert again.operation_census() == mixer_design.operation_census()

    def test_locked_design_text_contains_key_port(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 2).design
        text = locked.to_verilog()
        assert locked.key_port in text
        assert "?" in text  # at least one key-controlled ternary
