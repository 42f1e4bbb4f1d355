"""Unit tests for the Verilog parser."""

import pytest

from repro.verilog import ast
from repro.verilog.errors import ParseError
from repro.verilog.parser import parse, parse_expression, parse_module


class TestModuleStructure:
    def test_empty_module(self):
        module = parse_module("module empty (); endmodule")
        assert module.name == "empty"
        assert module.ports == []
        assert module.items == []

    def test_module_without_port_list(self):
        module = parse_module("module bare; wire x; endmodule")
        assert module.name == "bare"
        assert len(module.items) == 1

    def test_ansi_ports(self):
        module = parse_module("""
            module m (input clk, input [7:0] a, b, output reg [3:0] y);
            endmodule
        """)
        assert [port.name for port in module.ports] == ["clk", "a", "b", "y"]
        assert module.find_port("clk").direction == "input"
        assert module.find_port("a").width.width() == 8
        # b inherits the direction/width of the preceding declaration
        assert module.find_port("b").direction == "input"
        assert module.find_port("b").width.width() == 8
        assert module.find_port("y").net_type == "reg"

    def test_non_ansi_ports_merge_directions(self):
        module = parse_module("""
            module m (a, b, y);
              input [3:0] a, b;
              output y;
              assign y = a < b;
            endmodule
        """)
        assert module.find_port("a").direction == "input"
        assert module.find_port("a").width.width() == 4
        assert module.find_port("y").direction == "output"

    def test_header_parameters(self):
        module = parse_module("""
            module m #(parameter WIDTH = 8, parameter DEPTH = 16) (input clk);
            endmodule
        """)
        assert [p.name for p in module.parameters] == ["WIDTH", "DEPTH"]
        assert module.parameters[0].value.as_int() == 8

    def test_multiple_modules(self):
        source = parse("module a (); endmodule module b (); endmodule")
        assert [m.name for m in source.modules] == ["a", "b"]
        assert source.top.name == "a"
        assert source.find_module("b") is not None
        assert source.find_module("zzz") is None

    def test_parse_module_rejects_multiple(self):
        with pytest.raises(ParseError):
            parse_module("module a (); endmodule module b (); endmodule")


class TestDeclarations:
    def test_wire_with_init(self):
        module = parse_module("module m (); wire [7:0] x = 8'hAA; endmodule")
        decl = module.items[0]
        assert isinstance(decl, ast.NetDeclaration)
        assert decl.names == ["x"]
        assert decl.init.as_int() == 0xAA

    def test_reg_array(self):
        module = parse_module("module m (); reg [7:0] mem [0:255]; endmodule")
        decl = module.items[0]
        assert decl.net_type == "reg"
        assert len(decl.array_dims) == 1
        assert decl.array_dims[0].width() == 256

    def test_localparam(self):
        module = parse_module("module m (); localparam STATE_IDLE = 2'b00; endmodule")
        param = module.items[0]
        assert isinstance(param, ast.ParamDeclaration)
        assert param.local is True

    def test_signed_declaration(self):
        module = parse_module("module m (); wire signed [7:0] s; endmodule")
        assert module.items[0].signed is True

    def test_genvar(self):
        module = parse_module("module m (); genvar i, j; endmodule")
        assert module.items[0].names == ["i", "j"]

    def test_integer_declaration(self):
        module = parse_module("module m (); integer i; endmodule")
        assert module.items[0].net_type == "integer"


class TestBehaviour:
    def test_continuous_assign(self):
        module = parse_module("module m (input a, b, output y); assign y = a & b; endmodule")
        item = module.items[0]
        assert isinstance(item, ast.ContinuousAssign)
        assert isinstance(item.rhs, ast.BinaryOp)
        assert item.rhs.op == "&"

    def test_always_posedge(self):
        module = parse_module("""
            module m (input clk, input d, output reg q);
              always @(posedge clk) q <= d;
            endmodule
        """)
        always = module.items[0]
        assert isinstance(always, ast.AlwaysBlock)
        assert always.sensitivity[0].edge == "posedge"
        assert isinstance(always.statement, ast.NonBlockingAssign)

    def test_always_star(self):
        module = parse_module("""
            module m (input a, output reg y);
              always @(*) y = a;
            endmodule
        """)
        assert module.items[0].sensitivity[0].is_wildcard

    def test_sensitivity_or_list(self):
        module = parse_module("""
            module m (input a, b, output reg y);
              always @(a or b) y = a ^ b;
            endmodule
        """)
        assert len(module.items[0].sensitivity) == 2

    def test_if_else_chain(self):
        module = parse_module("""
            module m (input [1:0] s, input [7:0] a, b, output reg [7:0] y);
              always @(*) begin
                if (s == 2'd0) y = a;
                else if (s == 2'd1) y = b;
                else y = a + b;
              end
            endmodule
        """)
        block = module.items[0].statement
        outer_if = block.statements[0]
        assert isinstance(outer_if, ast.IfStatement)
        assert isinstance(outer_if.else_stmt, ast.IfStatement)

    def test_case_statement(self):
        module = parse_module("""
            module m (input [1:0] s, output reg [1:0] y);
              always @(*) begin
                case (s)
                  2'b00: y = 2'b11;
                  2'b01, 2'b10: y = 2'b00;
                  default: y = s;
                endcase
              end
            endmodule
        """)
        case = module.items[0].statement.statements[0]
        assert isinstance(case, ast.CaseStatement)
        assert len(case.items) == 3
        assert len(case.items[1].conditions) == 2
        assert case.items[2].is_default

    def test_for_loop(self):
        module = parse_module("""
            module m (input [7:0] a, output reg [7:0] y);
              integer i;
              always @(*) begin
                y = 0;
                for (i = 0; i < 8; i = i + 1)
                  y = y ^ a[i];
              end
            endmodule
        """)
        loop = module.items[1].statement.statements[1]
        assert isinstance(loop, ast.ForStatement)

    def test_named_block(self):
        module = parse_module("""
            module m (input a, output reg y);
              always @(*) begin : myblock
                y = a;
              end
            endmodule
        """)
        assert module.items[0].statement.name == "myblock"

    def test_task_call_statement(self):
        module = parse_module("""
            module m ();
              initial begin
                $display("hello", 42);
              end
            endmodule
        """)
        call = module.items[0].statement.statements[0]
        assert isinstance(call, ast.TaskCall)
        assert call.name == "$display"
        assert len(call.args) == 2

    def test_function_declaration(self):
        module = parse_module("""
            module m (input [7:0] a, output [7:0] y);
              function [7:0] double;
                input [7:0] value;
                double = value << 1;
              endfunction
              assign y = double(a);
            endmodule
        """)
        func = module.items[0]
        assert isinstance(func, ast.FunctionDeclaration)
        assert func.name == "double"
        call = module.items[1].rhs
        assert isinstance(call, ast.FunctionCall)

    def test_module_instance(self):
        module = parse_module("""
            module top (input [7:0] a, b, output [7:0] y);
              adder #(.WIDTH(8)) u0 (.x(a), .y(b), .sum(y));
              sub u1 (a, b, y);
            endmodule
        """)
        named = module.items[0]
        assert isinstance(named, ast.ModuleInstance)
        assert named.module_name == "adder"
        assert named.parameters[0].name == "WIDTH"
        assert named.connections[0].name == "x"
        positional = module.items[1]
        assert positional.connections[0].name is None


class TestExpressions:
    def test_precedence_multiplication_over_addition(self):
        expr = parse_expression("a + b * c")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_precedence_shift_below_addition(self):
        expr = parse_expression("a + b << 2")
        assert expr.op == "<<"
        assert expr.left.op == "+"

    def test_power_right_associative(self):
        expr = parse_expression("a ** b ** c")
        assert expr.op == "**"
        assert expr.right.op == "**"

    def test_left_associativity(self):
        expr = parse_expression("a - b - c")
        assert expr.op == "-"
        assert expr.left.op == "-"

    def test_parentheses_override(self):
        expr = parse_expression("(a + b) * c")
        assert expr.op == "*"
        assert expr.left.op == "+"

    def test_ternary(self):
        expr = parse_expression("sel ? a + b : a - b")
        assert isinstance(expr, ast.TernaryOp)
        assert expr.true_value.op == "+"
        assert expr.false_value.op == "-"

    def test_nested_ternary(self):
        expr = parse_expression("k0 ? (k1 ? a : b) : c")
        assert isinstance(expr.true_value, ast.TernaryOp)

    def test_unary_reduction(self):
        expr = parse_expression("&bus")
        assert isinstance(expr, ast.UnaryOp)
        assert expr.op == "&"

    def test_unary_binds_tighter_than_binary(self):
        expr = parse_expression("~a & b")
        assert expr.op == "&"
        assert isinstance(expr.left, ast.UnaryOp)

    def test_concat_and_replication(self):
        concat = parse_expression("{a, b[3:0], 2'b01}")
        assert isinstance(concat, ast.Concat)
        assert len(concat.parts) == 3
        repl = parse_expression("{4{a}}")
        assert isinstance(repl, ast.Replication)
        assert repl.count.as_int() == 4

    def test_nested_concat_with_replication(self):
        expr = parse_expression("{{2{a}}, b}")
        assert isinstance(expr, ast.Concat)
        assert isinstance(expr.parts[0], ast.Replication)

    def test_selects(self):
        bit = parse_expression("mem[3]")
        assert isinstance(bit, ast.BitSelect)
        part = parse_expression("bus[7:4]")
        assert isinstance(part, ast.PartSelect)
        indexed = parse_expression("bus[base +: 4]")
        assert isinstance(indexed, ast.IndexedPartSelect)
        assert indexed.direction == "+:"

    def test_chained_select(self):
        expr = parse_expression("mem[3][1]")
        assert isinstance(expr, ast.BitSelect)
        assert isinstance(expr.target, ast.BitSelect)

    def test_function_call_expression(self):
        expr = parse_expression("$signed(a) + f(b, c)")
        assert expr.op == "+"
        assert isinstance(expr.left, ast.FunctionCall)
        assert len(expr.right.args) == 2

    def test_int_const_parsing(self):
        assert parse_expression("4'b1101").as_int() == 13
        assert parse_expression("8'hff").as_int() == 255
        assert parse_expression("16'd1000").as_int() == 1000
        assert parse_expression("42").as_int() == 42
        assert parse_expression("4'b1101").width == 4
        assert parse_expression("42").width is None

    def test_int_const_with_x_bits_raises_on_as_int(self):
        const = parse_expression("4'b10xx")
        with pytest.raises(ValueError):
            const.as_int()

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("a + b extra")


class TestErrors:
    def test_missing_semicolon(self):
        with pytest.raises(ParseError):
            parse("module m (); wire x endmodule")

    def test_unclosed_module(self):
        with pytest.raises(ParseError):
            parse("module m (); wire x;")

    def test_unsupported_generate(self):
        with pytest.raises(ParseError):
            parse("module m (); generate endgenerate endmodule")

    def test_error_has_location(self):
        with pytest.raises(ParseError) as excinfo:
            parse("module m ();\n  assign = 1;\nendmodule")
        assert excinfo.value.line == 2
