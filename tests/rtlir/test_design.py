"""Unit tests for the Design wrapper and KeyBit records."""

import pytest

from repro.locking import AssureLocker
from repro.rtlir import Design, KeyBit
from repro.sim import CombinationalSimulator
from repro.verilog import ParseError, PreprocessorError

from ..conftest import MIXER_SOURCE

#: ``(id, Verilog)``: each text spells the width of port ``a`` with macros,
#: and ``Design.from_verilog`` must read it as 4 bits.
MACRO_CASES = [
    ("port-range", """`define W 4
module m (input [`W-1:0] a, output [`W-1:0] y);
  assign y = a + 1;
endmodule
"""),
    ("chained", """`define A 2
`define B `A+2
module m (input [`B-1:0] a, output y);
  assign y = a[0];
endmodule
"""),
    ("ifdef-else", """`define WIDE
`ifdef WIDE
`define W 4
`else
`define W 8
`endif
module m (input [`W-1:0] a, output y);
  assign y = a[0];
endmodule
"""),
    ("ifndef-guard", """`ifndef W
`define W 4
`endif
`ifndef W
`define W 9
`endif
module m (input [`W-1:0] a, output y);
  assign y = a[0];
endmodule
"""),
    ("redefined", """`define W 2
`undef W
`define W 4
module m (input [`W-1:0] a, output y);
  assign y = a[0];
endmodule
"""),
    ("other-directives", """`timescale 1ns/1ps
`default_nettype none
`define W 4
module m (input [`W-1:0] a, output y);
  assign y = a[0];
endmodule
"""),
    ("line-opens-with-a-macro", """`define PORTS input [3:0] a, output y
module m (
  `PORTS
);
  assign y = a[0];
endmodule
"""),
    ("sized-literal", """`define W 4
module m (input [`W-1:0] a, output [`W-1:0] y);
  assign y = a + `W'd3;
endmodule
"""),
    ("comments-mention-undefined", """/* A header that mentions
`ifdef NOWHERE and `UNDEFINED
 */
`define W 4 // the width; `ALSO_UNDEFINED
module m (input [`W-1:0] a, output y); // not `UNDEFINED
  assign y = a[0]; /* nor `THIS */
endmodule
"""),
]

#: ``(id, Verilog, macro)``: a use of a macro that is not defined.
UNDEFINED_MACRO_CASES = [
    ("never-defined", """module m (input [`W-1:0] a, output y);
  assign y = a[0];
endmodule
""", "W"),
    ("after-undef", """`define W 4
`undef W
module m (input [`W-1:0] a, output y);
  assign y = a[0];
endmodule
""", "W"),
    ("in-an-expression", """module m (input [3:0] a, output [3:0] y);
  assign y = a + `STEP;
endmodule
""", "STEP"),
]

#: ``(id, Verilog, line)``: a parse error on ``line`` of the file, below
#: lines the preprocessor drops.
PARSE_ERROR_LINE_CASES = [
    ("below-directives", """`define W 4
`timescale 1ns/1ps
module m (input [`W-1:0] a, output y);
  assign y = a +;
endmodule
""", 4),
    ("below-a-block-comment", """/* one
   two `UNDEFINED
   three */
module m (input a, output y);
  assign y = a +;
endmodule
""", 5),
    ("below-an-inactive-branch", """`ifdef NOPE
wire x;
wire z;
`endif
module m (input a, output y);
  assign y = a +;
endmodule
""", 6),
]


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

    def test_from_file_resolves_includes_next_to_the_file(self, tmp_path):
        (tmp_path / "defs.vh").write_text("`define W 4\n")
        path = tmp_path / "top.v"
        path.write_text('`include "defs.vh"\n'
                        "module top (input [`W-1:0] a, output y);\n"
                        "  assign y = a[0];\nendmodule\n")
        design = Design.from_file(path)
        assert design.name == "top"
        assert CombinationalSimulator(design).width_of("a") == 4

    def test_unknown_top_raises(self):
        with pytest.raises(ValueError):
            Design.from_verilog(MIXER_SOURCE, top_name="missing")

    def test_empty_source_raises(self):
        with pytest.raises(Exception):
            Design.from_verilog("")


class TestMacros:
    @pytest.mark.parametrize("source", [text for _, text in MACRO_CASES],
                             ids=[name for name, _ in MACRO_CASES])
    def test_macros_are_expanded(self, source):
        design = Design.from_verilog(source)
        assert CombinationalSimulator(design).width_of("a") == 4
        assert "`" not in design.to_verilog()

    @pytest.mark.parametrize("source,macro",
                             [case[1:] for case in UNDEFINED_MACRO_CASES],
                             ids=[case[0] for case in UNDEFINED_MACRO_CASES])
    def test_undefined_macro_is_named(self, source, macro):
        with pytest.raises(PreprocessorError, match=f"undefined macro `{macro}$"):
            Design.from_verilog(source)

    @pytest.mark.parametrize("source,line",
                             [case[1:] for case in PARSE_ERROR_LINE_CASES],
                             ids=[case[0] for case in PARSE_ERROR_LINE_CASES])
    def test_parse_errors_keep_file_line_numbers(self, source, line):
        with pytest.raises(ParseError) as error:
            Design.from_verilog(source)
        assert error.value.line == line


class TestKeyBits:
    @pytest.mark.parametrize("kind", ["operation", "branch", "constant"])
    def test_key_file_kinds_accepted(self, kind):
        assert KeyBit(index=3, kind=kind, correct_value=0).kind == kind

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
