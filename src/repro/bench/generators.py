"""Benchmark design generators.

Every generator builds the :class:`~repro.verilog.ast_nodes.Source` tree of
its design directly, with the node types, field values and item order the
parser produces from the equivalent Verilog text, so loading a benchmark
costs no lexing or parsing.  Each node is created fresh: the tree shares no
node between two parents, which :meth:`~repro.rtlir.design.Design.copy`
relies on.  Three generator families exist:

* :func:`plus_network` — the structurally regular ``+``-network used in the
  paper's learning-resilience discussion (Fig. 4) and as ``N_2046``,
* :func:`alternating_network` — the fully balanced ``+``/``-`` network
  (``N_1023``),
* :func:`profile_design` — a dataflow design following an arbitrary
  :class:`~repro.bench.profiles.BenchmarkProfile` (the open-source benchmark
  stand-ins).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from ..rtlir.design import Design
from ..rtlir.operations import OPERATOR_CLASSES
from ..verilog import ast_nodes as ast
from .profiles import BenchmarkProfile

#: Operators whose result is a single bit in the generated designs.
_SCALAR_RESULT_OPS = OPERATOR_CLASSES["relational"]


def plus_network(n_operations: int, width: int = 8, n_inputs: int = 16,
                 name: str = "plus_network") -> Design:
    """Generate a reduction network of ``n_operations`` ``+`` operations.

    The network chains and reduces its inputs with additions only, producing
    the fully imbalanced (biased) design of the paper's Fig. 4 discussion and
    the ``N_2046`` benchmark (``n_operations=2046``).

    Raises:
        ValueError: for a non-positive operation count.
    """
    return _homogeneous_network(["+"], n_operations, width, n_inputs, name)


def alternating_network(n_pairs: int, width: int = 8, n_inputs: int = 16,
                        name: str = "alternating_network") -> Design:
    """Generate a network with ``n_pairs`` ``+`` and ``n_pairs`` ``-`` operations.

    This is the fully balanced design of the paper (``N_1023`` uses
    ``n_pairs=1023``).
    """
    return _homogeneous_network(["+", "-"], 2 * n_pairs, width, n_inputs, name)


def _homogeneous_network(operators: Sequence[str], n_operations: int, width: int,
                         n_inputs: int, name: str) -> Design:
    if n_operations <= 0:
        raise ValueError("the network needs at least one operation")
    if n_inputs < 2:
        raise ValueError("the network needs at least two inputs")

    inputs = [f"in{i}" for i in range(n_inputs)]
    ports = [_port(n, "input", width) for n in inputs]
    ports.append(_port("out", "output", width))

    items: List[ast.ModuleItem] = []
    signals = list(inputs)
    for index in range(n_operations):
        op = operators[index % len(operators)]
        left = signals[index % len(signals)]
        right = signals[(index * 7 + 3) % len(signals)]
        wire = f"t{index}"
        items.append(_wire(wire, width, _binary(op, left, right)))
        signals.append(wire)
    items.append(_assign("out", ast.Identifier(f"t{n_operations - 1}")))
    return _design(name, ports, items, name)


def profile_design(profile: BenchmarkProfile, seed: Optional[int] = None,
                   name: Optional[str] = None) -> Design:
    """Generate a synthetic design following an operation profile.

    The generator emits one combinational wire assignment per profile
    operation, drawing operands from the primary inputs and from previously
    generated wires (biased towards recent wires so the dataflow has depth),
    then funnels the final wires into the outputs.  When the profile is
    ``sequential`` a clocked register stage with an asynchronous reset is
    appended (it adds no lockable operations, keeping the census equal to the
    profile).

    Args:
        profile: The operation profile to realise.
        seed: Seed for operand/operator interleaving (the census itself is
            deterministic and always matches the profile exactly).
        name: Module name override.

    Raises:
        ValueError: for an empty profile.
    """
    if profile.total_operations == 0:
        raise ValueError(f"profile {profile.name!r} contains no operations")
    rng = random.Random(seed)
    module_name = name or profile.name.lower()
    width = profile.width
    n_inputs = max(2, profile.n_inputs)

    # Interleave the operator multiset so different types mix along the dataflow.
    operator_sequence: List[str] = []
    for op, count in profile.operations.items():
        operator_sequence.extend([op] * count)
    rng.shuffle(operator_sequence)

    inputs = [f"d{i}" for i in range(n_inputs)]
    ports = [_port("clk", "input"), _port("rst_n", "input")]
    ports += [_port(n, "input", width) for n in inputs]
    ports.append(_port("data_out", "output", width))
    ports.append(_port("status_out", "output", width))
    if profile.sequential:
        ports.append(_port("state_q", "output", width, net_type="reg"))

    items: List[ast.ModuleItem] = []
    vector_signals = list(inputs)
    scalar_signals: List[str] = []
    for index, op in enumerate(operator_sequence):
        left = _pick_operand(vector_signals, rng)
        right = _pick_operand(vector_signals, rng, avoid=left)
        wire = f"n{index}"
        if op in _SCALAR_RESULT_OPS:
            items.append(_wire(wire, None, _binary(op, left, right)))
            scalar_signals.append(wire)
        elif op in ("<<", ">>", "<<<", ">>>"):
            shift = rng.randint(1, max(1, width // 2))
            items.append(_wire(wire, width, ast.BinaryOp(
                op, ast.Identifier(left), ast.IntConst(str(shift)))))
            vector_signals.append(wire)
        else:
            items.append(_wire(wire, width, _binary(op, left, right)))
            vector_signals.append(wire)

    data_feed = vector_signals[-1]
    status_parts = scalar_signals[-width:] if scalar_signals else []
    items.append(_assign("data_out", ast.Identifier(data_feed)))
    if status_parts:
        items.append(_assign("status_out", ast.Concat(
            [ast.Identifier(part) for part in reversed(status_parts)])))
    else:
        items.append(_assign("status_out", ast.Identifier(vector_signals[-2])))

    if profile.sequential:
        select: ast.Expression = (
            ast.Identifier(scalar_signals[0]) if scalar_signals
            else ast.BitSelect(ast.Identifier(inputs[0]), ast.IntConst("0")))
        hold = vector_signals[-2]
        update = ast.IfStatement(
            ast.UnaryOp("!", ast.Identifier("rst_n")),
            _register("state_q", ast.IntConst("0")),
            ast.IfStatement(select,
                            _register("state_q", ast.Identifier(data_feed)),
                            _register("state_q", ast.Identifier(hold))))
        items.append(ast.AlwaysBlock(
            [ast.SensitivityItem(ast.Identifier("clk"), "posedge"),
             ast.SensitivityItem(ast.Identifier("rst_n"), "negedge")],
            ast.Block([update])))

    return _design(module_name, ports, items, profile.name)


def _pick_operand(signals: List[str], rng: random.Random,
                  avoid: Optional[str] = None) -> str:
    """Pick an operand, biased towards recently created wires for depth."""
    if len(signals) == 1:
        return signals[0]
    # 60 % chance to draw from the most recent quarter of the pool.
    if rng.random() < 0.6:
        start = max(0, len(signals) - max(2, len(signals) // 4))
        candidates = signals[start:]
    else:
        candidates = signals
    choice = rng.choice(candidates)
    if avoid is not None and choice == avoid and len(candidates) > 1:
        alternatives = [s for s in candidates if s != avoid]
        choice = rng.choice(alternatives)
    return choice


# ---------------------------------------------------------------- AST builders
# Each call returns fresh nodes, as the parser does for every token it reads.

def _range(width: Optional[int]) -> Optional[ast.Range]:
    """``[width-1:0]``, or no range for a scalar (``width`` None)."""
    if width is None:
        return None
    return ast.Range(ast.IntConst(str(width - 1)), ast.IntConst("0"))


def _port(name: str, direction: str, width: Optional[int] = None,
          net_type: Optional[str] = None) -> ast.Port:
    """An ANSI header port ``direction [net_type] [range] name``."""
    return ast.Port(name, direction=direction, net_type=net_type,
                    width=_range(width))


def _binary(op: str, left: str, right: str) -> ast.BinaryOp:
    """``left op right`` over two signal names."""
    return ast.BinaryOp(op, ast.Identifier(left), ast.Identifier(right))


def _wire(name: str, width: Optional[int],
          init: ast.Expression) -> ast.NetDeclaration:
    """``wire [range] name = init;``"""
    return ast.NetDeclaration("wire", [name], width=_range(width), init=init)


def _assign(name: str, rhs: ast.Expression) -> ast.ContinuousAssign:
    """``assign name = rhs;``"""
    return ast.ContinuousAssign(ast.Identifier(name), rhs)


def _register(name: str, rhs: ast.Expression) -> ast.NonBlockingAssign:
    """``name <= rhs;``"""
    return ast.NonBlockingAssign(ast.Identifier(name), rhs)


def _design(module_name: str, ports: List[ast.Port],
            items: List[ast.ModuleItem], name: str) -> Design:
    return Design(ast.Source([ast.Module(module_name, ports, items)]),
                  name=name)
