"""Unit tests for AST child iteration, tree walks and child replacement."""

import pytest

from repro.verilog import ast
from repro.verilog.parser import parse_expression, parse_module

#: ``(msb, lsb, width)``: range bounds as Verilog text and the constant
#: width they give (``None`` when a bound is not constant).
RANGE_CASES = [
    ("7", "0", 8),
    ("4-1", "0", 4),
    ("2*4-1", "0", 8),
    ("0", "3+4", 8),
    ("W-1", "0", None),
    ("8/2", "0", None),
]


class TestReplaceChild:
    def test_replace_child_in_list_field(self):
        concat = parse_expression("{a, b, c}")
        new = ast.Identifier("z")
        assert concat.replace_child(concat.parts[1], new)
        assert concat.parts[1] is new

    def test_replace_child_not_found(self):
        expr = parse_expression("a + b")
        assert expr.replace_child(ast.Identifier("nope"), ast.Identifier("x")) is False

    def test_replace_child_in_scalar_field(self):
        expr = parse_expression("a + b")
        new = ast.Identifier("z")
        assert expr.replace_child(expr.right, new)
        assert expr.right is new


class TestTreeWalk:
    def test_children_in_field_order(self):
        expr = parse_expression("c ? a : b")
        assert [child.name for child in expr.children()] == ["c", "a", "b"]

    def test_leaf_has_no_children(self):
        assert list(ast.Identifier("a").children()) == []

    def test_iter_tree_is_pre_order(self):
        expr = parse_expression("(a + b) * c")
        walked = list(expr.iter_tree())
        assert walked[0] is expr
        assert [type(node).__name__ for node in walked] == [
            "BinaryOp", "BinaryOp", "Identifier", "Identifier", "Identifier"]

    def test_iter_tree_reaches_every_binary_op(self):
        module = parse_module("""
            module m (input [3:0] a, b, output [3:0] y, z);
              wire [3:0] t = a + b;
              assign y = t - a;
              assign z = {t, a} ^ b;
            endmodule
        """)
        ops = sorted(node.op for node in module.iter_tree()
                     if isinstance(node, ast.BinaryOp))
        assert ops == ["+", "-", "^"]


class TestRangeWidth:
    @pytest.mark.parametrize("msb,lsb,width", RANGE_CASES,
                             ids=[f"[{msb}:{lsb}]" for msb, lsb, _
                                  in RANGE_CASES])
    def test_constant_bounds_give_the_width(self, msb, lsb, width):
        bounds = ast.Range(parse_expression(msb), parse_expression(lsb))
        assert bounds.width() == width
