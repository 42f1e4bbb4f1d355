"""The plan IR: typed steps, the compiled-plan container, and plan statistics.

A design compiles into a flat, topologically ordered list of :class:`Step`
objects — the intermediate representation every optimisation pass in
:mod:`repro.sim.plan.passes` works on.  Each step declares

* what it **writes** (``target``, with its exact slice ``width``),
* what it **reads** (``reads`` — signal and slot names; the dependency edges
  the sweep classifier and the release schedules walk),
* where it came from (``kind`` — a module assignment, a shared ``$cseN``
  subexpression, or a hoisted point-invariant ``$vnN`` subexpression), and
* its executable form (``fn`` — a bit-slice closure produced by
  :mod:`repro.sim.plan.lowering`).

The :class:`EvalPlan` is the finished artefact the executor runs; its
:class:`PlanStats` counts what the passes did.  This module also hosts the
pieces of structural identity the passes share: :func:`structural_key`
(equal keys compile to equal values) and the assignment-collection helpers
that turn a module into the pre-lowering IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ...verilog import ast_nodes as ast
from ...verilog.codegen import generate
from ..evaluator import SimulationError

#: Working width of intermediate results (mirrors ExpressionEvaluator).
WORKING_WIDTH = 32

#: A bit-sliced value: slice ``i`` holds bit ``i`` of every lane.
Slices = List[int]

#: A compiled expression: ``fn(env, full) -> slices`` where ``full`` is the
#: all-lanes-set mask of the current batch.
CompiledExpr = Callable[[Dict[str, Slices], int], Slices]


class BatchCompileError(SimulationError):
    """Raised when an expression cannot be compiled to a bit-slice plan."""


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


@dataclass
class Step:
    """One slot assignment of a compiled plan.

    Attributes:
        target: Name of the signal or synthetic slot the step writes.
        width: Exact number of slices the step produces.
        fn: The bit-slice closure computing the value (``None`` until the
            lowering pass has run).
        reads: Signal/slot names the closure reads — the dependency edges
            used by the sweep classifier and the release schedules.
        key_bits: Positions of the key port the closure reads directly, in
            ascending order: the selected bits of a static bit- or
            part-select, every bit of a whole-port read or a dynamic index.  Transitively, the cones of
            single-bit key flips (:func:`~repro.sim.plan.executor.key_cones`).
        kind: ``"assign"`` for module assignments, ``"cse"`` for shared
            ``$cseN`` subexpression slots, ``"invariant"`` for ``$vnN``
            slots hoisted by sweep value-numbering.
    """

    target: str
    width: int
    fn: Optional[CompiledExpr] = None
    reads: FrozenSet[str] = frozenset()
    key_bits: Tuple[int, ...] = ()
    kind: str = "assign"


@dataclass(frozen=True)
class PlanStats:
    """Optimisation statistics of one :func:`~repro.sim.plan.compile_plan` run.

    Attributes:
        steps: Steps in the final plan (synthetic slots included).
        cse_steps: Shared ``$cseN`` steps emitted for subexpressions that
            occur more than once in live assignments.
        pruned_steps: Assignments dropped before compilation because no
            output port transitively reads them.
        folded_constants: Identifier-free subexpressions replaced by literal
            constants by the folding pass.
        hoisted_subexprs: ``$vnN`` steps emitted by sweep value-numbering for
            point-invariant subexpressions inside live point-varying
            assignments.
        invariant_steps: Steps of the final plan whose transitive inputs
            exclude the key port — the work :meth:`BatchSimulator.run_sweep
            <repro.sim.plan.executor.BatchSimulator.run_sweep>` evaluates
            once per V-lane base batch instead of once per S×V sweep lane
            (when hoisting pays off for the plan).
    """

    steps: int = 0
    cse_steps: int = 0
    pruned_steps: int = 0
    folded_constants: int = 0
    hoisted_subexprs: int = 0
    invariant_steps: int = 0


@dataclass
class EvalPlan:
    """A design compiled for bit-parallel evaluation.

    Attributes:
        steps: Topologically ordered :class:`Step` list.
        inputs: Primary input names (key port included when locked).
        outputs: Combinational output names in declaration order.
        widths: Declared signal widths.
        key_port: Name of the key input port, if any.
        stats: Optimisation statistics of the compile.
    """

    steps: List[Step]
    inputs: List[str]
    outputs: List[str]
    widths: Dict[str, int]
    key_port: Optional[str]
    stats: PlanStats = field(default_factory=PlanStats)

    def width_of(self, name: str) -> int:
        """Declared width of a signal (working width when unknown)."""
        return self.widths.get(name, WORKING_WIDTH)


# ---------------------------------------------------------------------------
# Structural subexpression identity (shared by the CSE and sweep-VN passes)
# ---------------------------------------------------------------------------

#: Expression node types worth hoisting into a shared plan step.  Identifier
#: and constant reads are excluded: sharing them saves nothing over the
#: direct read/materialise closure.
HOISTABLE = (ast.BinaryOp, ast.UnaryOp, ast.TernaryOp, ast.Concat,
             ast.Replication, ast.BitSelect, ast.PartSelect,
             ast.IndexedPartSelect)


def structural_key(expr: ast.Expression, memo: Dict[int, tuple]) -> tuple:
    """Structural identity of ``expr``: equal keys compile to equal values.

    Keys are built bottom-up and memoized by node id, so walking a whole
    design costs one visit per AST node.  Node types the compiler does not
    know are keyed by identity — they never alias anything.
    """
    key = memo.get(id(expr))
    if key is not None:
        return key
    if isinstance(expr, ast.Identifier):
        key = ("id", expr.name)
    elif isinstance(expr, ast.IntConst):
        key = ("const", expr.value)
    elif isinstance(expr, ast.UnaryOp):
        key = ("un", expr.op, structural_key(expr.operand, memo))
    elif isinstance(expr, ast.BinaryOp):
        key = ("bin", expr.op, structural_key(expr.left, memo),
               structural_key(expr.right, memo))
    elif isinstance(expr, ast.TernaryOp):
        key = ("tern", structural_key(expr.cond, memo),
               structural_key(expr.true_value, memo),
               structural_key(expr.false_value, memo))
    elif isinstance(expr, ast.Concat):
        key = ("cat",) + tuple(structural_key(part, memo)
                               for part in expr.parts)
    elif isinstance(expr, ast.Replication):
        key = ("rep", structural_key(expr.count, memo),
               structural_key(expr.value, memo))
    elif isinstance(expr, ast.BitSelect):
        key = ("bit", structural_key(expr.target, memo),
               structural_key(expr.index, memo))
    elif isinstance(expr, ast.PartSelect):
        key = ("part", structural_key(expr.target, memo),
               structural_key(expr.msb, memo),
               structural_key(expr.lsb, memo))
    elif isinstance(expr, ast.IndexedPartSelect):
        key = ("ipart", expr.direction, structural_key(expr.target, memo),
               structural_key(expr.base, memo),
               structural_key(expr.width, memo))
    else:
        key = ("opaque", id(expr))
    memo[id(expr)] = key
    return key


def shared_subexpressions(exprs: Iterable[ast.Expression],
                          memo: Dict[int, tuple]) -> FrozenSet[tuple]:
    """Structural keys of hoistable subexpressions occurring more than once.

    One walk over an explicit node stack; ``memo`` is the structural-key
    memo (see :func:`structural_key`), and the keys computed here stay in it
    for the passes after this one.
    """
    counts: Dict[tuple, int] = {}
    stack = list(exprs)
    while stack:
        node = stack.pop()
        if isinstance(node, HOISTABLE):
            key = structural_key(node, memo)
            counts[key] = counts.get(key, 0) + 1
        for name in node._fields:
            child = getattr(node, name)
            if isinstance(child, list):
                stack.extend(child)
            elif child is not None:
                stack.append(child)
    return frozenset(key for key, count in counts.items() if count > 1)


def static_int(expr: ast.Expression) -> Optional[int]:
    """Return the compile-time value of a constant expression, else None."""
    if isinstance(expr, ast.IntConst):
        try:
            return expr.as_int()
        except ValueError:
            return None
    return None


def expression_reads(expr: ast.Expression) -> FrozenSet[str]:
    """Names of every signal an expression reads (identifier leaves)."""
    names = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Identifier):
            names.add(node.name)
            continue
        for name in node._fields:
            child = getattr(node, name)
            if isinstance(child, list):
                stack.extend(child)
            elif child is not None:
                stack.append(child)
    return frozenset(names)


# ---------------------------------------------------------------------------
# Module → pre-lowering IR (assignment collection)
# ---------------------------------------------------------------------------


def _declared_widths(module: ast.Module) -> Dict[str, int]:
    """Each port's and net's declared width (1 bit without a range).

    Raises:
        SimulationError: for a range whose bounds are not constant, such as
            ``[W-1:0]`` of a parameter ``W`` (parameters are not resolved).
    """
    widths: Dict[str, int] = {}
    for port in module.ports:
        widths[port.name] = _range_width(port.name, port.width)
    for item in module.items:
        if isinstance(item, ast.NetDeclaration):
            for name in item.names:
                widths[name] = _range_width(name, item.width)
        elif isinstance(item, ast.PortDeclaration):
            for name in item.names:
                widths.setdefault(name, _range_width(name, item.width))
    return widths


def _range_width(name: str, declared: Optional[ast.Range]) -> int:
    if declared is None:
        return 1
    width = declared.width()
    if width is None:
        raise SimulationError(
            f"signal {name!r} has a range that is not constant: "
            f"[{generate(declared.msb)}:{generate(declared.lsb)}]")
    return width


def _ordered_assignments(module: ast.Module
                         ) -> Tuple[List[Tuple[str, ast.Expression]],
                                    Dict[str, FrozenSet[str]]]:
    """Collect combinational assignments and order them by dependencies.

    Rounds visit the pending assignments in declaration order and emit each
    one whose reads are no longer pending, so a module declared in
    dependency order is emitted as declared, in one round.  Each
    expression is walked once, for its read set.

    Returns:
        ``(order, reads)``: the ``(name, expression)`` pairs in dependency
        order, and each assignment's read set (the signals its expression
        reads, itself excluded).

    Raises:
        SimulationError: for combinational dependency cycles, naming every
            assignment the cycle leaves unordered.
    """
    assignments: Dict[str, ast.Expression] = {}
    for item in module.items:
        if isinstance(item, ast.NetDeclaration) and item.init is not None:
            assignments[item.names[0]] = item.init
        elif isinstance(item, ast.ContinuousAssign):
            target = _target_name(item.lhs)
            if target is not None:
                assignments[target] = item.rhs
    reads = {name: expression_reads(expr) - {name}
             for name, expr in assignments.items()}

    order: List[Tuple[str, ast.Expression]] = []
    pending = dict(assignments)
    unresolved = pending.keys()
    while pending:
        progressed = False
        for name in list(pending):
            if unresolved.isdisjoint(reads[name]):
                order.append((name, pending.pop(name)))
                progressed = True
        if not progressed:
            raise SimulationError(
                "combinational dependency cycle involving: "
                + ", ".join(sorted(pending)))
    return order, reads


def _target_name(lhs: ast.Expression) -> Optional[str]:
    if isinstance(lhs, ast.Identifier):
        return lhs.name
    if isinstance(lhs, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
        # Partial assignments are not supported by the simulators.
        return None
    return None
