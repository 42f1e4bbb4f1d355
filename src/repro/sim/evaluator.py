"""Expression evaluation for the combinational RTL simulator.

Expressions are evaluated over plain Python integers with explicit bit widths
(unsigned, two-valued semantics).  This is sufficient to validate the key
property of operation/branch/constant locking: with the correct key the
locked design computes the same function as the original, with a wrong key it
(generally) does not.

Division and modulo by zero evaluate to 0 (Verilog would produce ``x``; the
two-valued simplification is documented and deterministic).
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..verilog import ast_nodes as ast


class SimulationError(RuntimeError):
    """Raised when an expression cannot be evaluated."""


def mask(value: int, width: int) -> int:
    """Truncate ``value`` to ``width`` unsigned bits."""
    if width <= 0:
        raise SimulationError(f"invalid bit width {width}")
    return value & ((1 << width) - 1)


def _to_bool(value: int) -> int:
    return 1 if value != 0 else 0


def _binary_result(op: str, left: int, right: int, width: int) -> int:
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left // right if right != 0 else 0
    if op == "%":
        return left % right if right != 0 else 0
    if op == "**":
        # Cap the exponent so pathological inputs cannot explode; results are
        # masked to the expression width anyway.
        return pow(left, min(right, 64), 1 << max(width, 1))
    if op in ("<<", "<<<"):
        return left << min(right, 4 * width)
    if op in (">>", ">>>"):
        return left >> min(right, 4 * width)
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "^":
        return left ^ right
    if op in ("~^", "^~"):
        return ~(left ^ right)
    if op == "<":
        return int(left < right)
    if op == ">":
        return int(left > right)
    if op == "<=":
        return int(left <= right)
    if op == ">=":
        return int(left >= right)
    if op in ("==", "==="):
        return int(left == right)
    if op in ("!=", "!=="):
        return int(left != right)
    if op == "&&":
        return _to_bool(left) & _to_bool(right)
    if op == "||":
        return _to_bool(left) | _to_bool(right)
    raise SimulationError(f"unsupported binary operator {op!r}")


def _unary_result(op: str, operand: int, width: int) -> int:
    if op == "+":
        return operand
    if op == "-":
        return -operand
    if op == "~":
        return ~operand
    if op == "!":
        return int(operand == 0)
    if op == "&":
        return int(operand == mask(-1, width))
    if op == "~&":
        return int(operand != mask(-1, width))
    if op == "|":
        return int(operand != 0)
    if op == "~|":
        return int(operand == 0)
    if op == "^":
        return bin(mask(operand, width)).count("1") & 1
    if op in ("~^", "^~"):
        return (bin(mask(operand, width)).count("1") & 1) ^ 1
    raise SimulationError(f"unsupported unary operator {op!r}")


class ExpressionEvaluator:
    """Evaluates AST expressions against a signal environment.

    Args:
        widths: Mapping from signal name to its declared bit width (signals
            missing from the map default to ``default_width``).
        default_width: Width used for signals of unknown width and as the
            working width of intermediate results.
    """

    def __init__(self, widths: Optional[Mapping[str, int]] = None,
                 default_width: int = 32) -> None:
        self.widths = dict(widths or {})
        self.default_width = default_width

    def width_of(self, name: str) -> int:
        """Return the declared width of a signal (default when unknown)."""
        return self.widths.get(name, self.default_width)

    # ------------------------------------------------------------ evaluation

    def evaluate(self, expr: ast.Expression, env: Mapping[str, int]) -> int:
        """Evaluate ``expr`` under the signal values in ``env``.

        Raises:
            SimulationError: for identifiers missing from ``env`` or
                unsupported constructs.
        """
        working = max(self.default_width, 1)

        if isinstance(expr, ast.Identifier):
            if expr.name not in env:
                raise SimulationError(f"signal {expr.name!r} has no value")
            return mask(int(env[expr.name]), self.width_of(expr.name))
        if isinstance(expr, ast.IntConst):
            try:
                value = expr.as_int()
            except ValueError as exc:
                raise SimulationError(str(exc)) from exc
            return value
        if isinstance(expr, ast.BinaryOp):
            left = self.evaluate(expr.left, env)
            right = self.evaluate(expr.right, env)
            return mask(_binary_result(expr.op, left, right, working), working)
        if isinstance(expr, ast.UnaryOp):
            operand = self.evaluate(expr.operand, env)
            operand_width = self._operand_width(expr.operand)
            return mask(_unary_result(expr.op, operand, operand_width), working)
        if isinstance(expr, ast.TernaryOp):
            condition = self.evaluate(expr.cond, env)
            branch = expr.true_value if condition != 0 else expr.false_value
            return self.evaluate(branch, env)
        if isinstance(expr, ast.Concat):
            value = 0
            for part in expr.parts:
                part_width = self._operand_width(part)
                value = (value << part_width) | mask(self.evaluate(part, env),
                                                     part_width)
            return value
        if isinstance(expr, ast.Replication):
            count = self.evaluate(expr.count, env)
            part_width = self._operand_width(expr.value)
            part_value = mask(self.evaluate(expr.value, env), part_width)
            value = 0
            for _ in range(count):
                value = (value << part_width) | part_value
            return value
        if isinstance(expr, ast.BitSelect):
            target = self.evaluate(expr.target, env)
            index = self.evaluate(expr.index, env)
            return (target >> index) & 1
        if isinstance(expr, ast.PartSelect):
            target = self.evaluate(expr.target, env)
            msb = self.evaluate(expr.msb, env)
            lsb = self.evaluate(expr.lsb, env)
            if msb < lsb:
                msb, lsb = lsb, msb
            return (target >> lsb) & ((1 << (msb - lsb + 1)) - 1)
        if isinstance(expr, ast.IndexedPartSelect):
            target = self.evaluate(expr.target, env)
            base = self.evaluate(expr.base, env)
            width = self.evaluate(expr.width, env)
            if expr.direction == "+:":
                lsb = base
            else:
                lsb = base - width + 1
            return (target >> max(lsb, 0)) & ((1 << width) - 1)
        raise SimulationError(
            f"cannot evaluate expression of type {type(expr).__name__}")

    def _operand_width(self, expr: ast.Expression) -> int:
        if isinstance(expr, ast.Identifier):
            return self.width_of(expr.name)
        if isinstance(expr, ast.IntConst) and expr.width is not None:
            return expr.width
        if isinstance(expr, (ast.BitSelect,)):
            return 1
        if isinstance(expr, ast.PartSelect):
            try:
                msb = expr.msb.as_int()
                lsb = expr.lsb.as_int()
                return abs(msb - lsb) + 1
            except (AttributeError, ValueError):
                return self.default_width
        return self.default_width
