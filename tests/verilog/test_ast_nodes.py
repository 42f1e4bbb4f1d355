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

#: Expressions whose ``iter_tree`` order is held to a recursive pre-order
#: reference.
WALK_CASES = [
    "a",
    "(a + b) * c",
    "c ? a : b",
    "{a, b, {2{c}}}",
    "a[3:0] + b[i] - c[j +: 2]",
    "f(a, b + c) - ~d",
    "((a + b) * (c - d)) ^ (e ? f + 1 : g)",
]


def _recursive_pre_order(node):
    yield node
    for child in node.children():
        yield from _recursive_pre_order(child)


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


    @pytest.mark.parametrize("text", WALK_CASES)
    def test_iter_tree_equals_the_recursive_walk(self, text):
        expr = parse_expression(text)
        walked = list(expr.iter_tree())
        reference = list(_recursive_pre_order(expr))
        assert len(walked) == len(reference)
        assert all(a is b for a, b in zip(walked, reference))

    def test_iter_tree_of_a_module_equals_the_recursive_walk(self):
        module = parse_module("""
            module m (input [3:0] a, b, output [3:0] y, z);
              wire [3:0] t = a + b;
              assign y = t[1] ? t - a : ~t;
              assign z = {t, a} ^ b;
            endmodule
        """)
        walked = list(module.iter_tree())
        reference = list(_recursive_pre_order(module))
        assert len(walked) == len(reference)
        assert all(a is b for a, b in zip(walked, reference))

    def test_deep_tree_needs_no_recursion(self):
        # A chain far deeper than the interpreter's recursion limit.
        root = ast.Identifier("a")
        for _ in range(5000):
            root = ast.BinaryOp("+", root, ast.Identifier("b"))
        walked = list(root.iter_tree())
        assert len(walked) == 10001
        assert walked[0] is root and walked[-1].name == "b"


class TestRangeWidth:
    @pytest.mark.parametrize("msb,lsb,width", RANGE_CASES,
                             ids=[f"[{msb}:{lsb}]" for msb, lsb, _
                                  in RANGE_CASES])
    def test_constant_bounds_give_the_width(self, msb, lsb, width):
        bounds = ast.Range(parse_expression(msb), parse_expression(lsb))
        assert bounds.width() == width
