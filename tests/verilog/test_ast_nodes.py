"""Unit tests for AST child iteration, tree walks and child replacement."""

from repro.verilog import ast
from repro.verilog.parser import parse_expression, parse_module


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
