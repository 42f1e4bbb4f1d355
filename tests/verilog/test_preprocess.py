"""Unit tests for the minimal Verilog preprocessor."""

import pytest

from repro.verilog.parser import parse_module
from repro.verilog.preprocess import Preprocessor, PreprocessorError, preprocess


class TestDefines:
    def test_simple_define_expansion(self):
        text = "`define WIDTH 8\nwire [`WIDTH-1:0] x;\n"
        assert "wire [8-1:0] x;" in preprocess(text)

    def test_chained_defines(self):
        text = "`define A 4\n`define B `A\nwire [`B:0] x;\n"
        assert "wire [4:0] x;" in preprocess(text)

    def test_undef(self):
        text = "`define A 1\n`undef A\nwire x = `A;\n"
        with pytest.raises(PreprocessorError, match="undefined macro `A"):
            preprocess(text)

    def test_comments_are_dropped_with_their_line_breaks(self):
        text = ('`define A 1 // `B\n/* `ifdef C\n`D */ wire a = `A;\n'
                'wire s = "// kept"; // `E\n')
        assert preprocess(text).split("\n") == [
            "", "", ' wire a = 1;', 'wire s = "// kept"; ', ""]

    def test_dropped_lines_keep_the_line_count(self):
        text = ("`timescale 1ns/1ps\n`define A 1\n`ifdef B\nwire b;\n"
                "`else\nwire c = `A;\n`endif\nwire d;\n")
        assert preprocess(text).split("\n") == [
            "", "", "", "", "", "wire c = 1;", "", "wire d;", ""]

    def test_define_with_comment_in_body(self):
        text = "`define W 16 // bus width\nwire [`W-1:0] d;\n"
        assert "wire [16-1:0] d;" in preprocess(text)

    def test_function_like_macro_rejected(self):
        with pytest.raises(PreprocessorError):
            preprocess("`define MAX(a,b) ((a)>(b)?(a):(b))\n")

    def test_recursive_define_detected(self):
        with pytest.raises(PreprocessorError):
            preprocess("`define X `Y\n`define Y `X\nwire w = `X;\n")

    def test_predefined_macros(self):
        pre = Preprocessor(defines={"WIDTH": "32"})
        assert "wire [32-1:0] x;" in pre.process("wire [`WIDTH-1:0] x;\n")


class TestConditionals:
    def test_ifdef_taken(self):
        text = "`define FAST 1\n`ifdef FAST\nwire f;\n`else\nwire s;\n`endif\n"
        result = preprocess(text)
        assert "wire f;" in result
        assert "wire s;" not in result

    def test_ifdef_not_taken(self):
        text = "`ifdef MISSING\nwire f;\n`else\nwire s;\n`endif\n"
        result = preprocess(text)
        assert "wire s;" in result
        assert "wire f;" not in result

    def test_ifndef(self):
        text = "`ifndef MISSING\nwire present;\n`endif\n"
        assert "wire present;" in preprocess(text)

    def test_nested_conditionals(self):
        text = ("`define A 1\n"
                "`ifdef A\n"
                "`ifdef B\nwire both;\n`else\nwire only_a;\n`endif\n"
                "`endif\n")
        result = preprocess(text)
        assert "wire only_a;" in result
        assert "wire both;" not in result

    def test_unterminated_ifdef_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("`ifdef X\nwire w;\n")

    def test_stray_endif_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess("`endif\n")


class TestIncludesAndDirectives:
    def test_include_resolution(self, tmp_path):
        header = tmp_path / "defs.vh"
        header.write_text("`define DATA_W 12\n")
        main = tmp_path / "top.v"
        main.write_text('`include "defs.vh"\nmodule m (input [`DATA_W-1:0] d); endmodule\n')
        pre = Preprocessor()
        processed = pre.process_file(main)
        assert "[12-1:0]" in processed
        module = parse_module(processed)
        assert module.find_port("d").direction == "input"

    def test_missing_include_raises(self):
        with pytest.raises(PreprocessorError):
            preprocess('`include "nowhere.vh"\n')

    def test_other_directives_dropped(self):
        text = "`timescale 1ns/1ps\n`default_nettype none\nwire x;\n"
        result = preprocess(text)
        assert "timescale" not in result
        assert "wire x;" in result


class TestIntegrationWithParser:
    def test_preprocessed_module_parses(self):
        text = """
`define W 8
`ifdef SYNTHESIS
`else
module scaled (input [`W-1:0] a, output [`W-1:0] y);
  assign y = a + `W'd1;
endmodule
`endif
"""
        module = parse_module(preprocess(text))
        assert module.name == "scaled"
