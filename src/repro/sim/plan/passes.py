"""The plan pipeline: five passes that always run in one order.

:func:`compile_plan` turns a design into an :class:`~repro.sim.plan.steps.EvalPlan`
by running five passes over a mutable :class:`PlanBuild`:

``prune`` → ``fold`` → ``cse`` → ``sweep-vn`` → ``lower``

* **prune** (:func:`_prune`) — assignments no output port transitively
  reads are dropped, so every later pass walks only live logic.  It runs
  on the topologically ordered assignments and reuses the read sets the
  ordering computed.  Nothing is left to prune after lowering: every
  ``$cseN``/``$vnN`` slot is emitted where a live step reads it.
* **fold** (:func:`_fold`) — identifier-free subexpressions are evaluated
  once at compile time with the *scalar* expression evaluator and replaced
  by literal constants, preserving each node's static operand-width
  semantics exactly.
* **cse** (:func:`_cse`) — structural keys of subexpressions occurring more
  than once; the lowering emits each as one shared ``$cseN`` step.
* **sweep-vn** (:func:`_sweep_vn`) — *sweep value-numbering*: walks
  key-port dependence through the assignment list and collects the maximal
  point-invariant subexpressions inside point-varying assignments, which
  the lowering emits as ``$vnN`` steps.  :meth:`BatchSimulator.run_sweep
  <repro.sim.plan.executor.BatchSimulator.run_sweep>` then evaluates that
  work once per V-lane base batch instead of once per S×V sweep lane.
* **lower** (:func:`_lower`) — AST expressions → bit-slice closures via
  :class:`~repro.sim.plan.lowering.ExpressionCompiler`.

Every pass is value-neutral: plan outputs equal the scalar AST oracle's,
which shares no code with plans (``tests/sim/test_passes.py``,
``tests/sim/test_cse.py`` and the every-benchmark × every-locker check in
``tests/api/test_registry_contracts.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ...rtlir.design import Design
from ...verilog import ast_nodes as ast
from ..evaluator import ExpressionEvaluator, SimulationError
from .executor import classify_steps
from .lowering import ExpressionCompiler
from .steps import (HOISTABLE, WORKING_WIDTH, EvalPlan, PlanStats, Step,
                    _declared_widths, _ordered_assignments,
                    shared_subexpressions, structural_key)


@dataclass
class PlanBuild:
    """Mutable build state the passes transform.

    Before the ``lower`` pass the IR is the ``assignments`` list (name →
    AST expression, topologically ordered) with each assignment's read set
    (``reads``, itself excluded) plus analysis annotations (``shared``,
    ``invariant_keys``); afterwards it is the ``steps`` list of lowered
    :class:`~repro.sim.plan.steps.Step` objects.  ``key_memo`` is the one
    structural-key memo (node id → key) of the ``cse``, ``sweep-vn`` and
    ``lower`` passes: ``fold`` runs before them, and no later pass makes
    or drops a node, so every id it holds names a live node of the IR.
    """

    top_name: str
    widths: Dict[str, int]
    assignments: List[Tuple[str, ast.Expression]]
    reads: Dict[str, FrozenSet[str]]
    inputs: List[str]
    output_ports: List[str]
    key_port: Optional[str]
    shared: FrozenSet[tuple] = frozenset()
    invariant_keys: FrozenSet[tuple] = frozenset()
    key_memo: Dict[int, tuple] = field(default_factory=dict)
    steps: Optional[List[Step]] = None
    outputs: List[str] = field(default_factory=list)
    cse_steps: int = 0
    vn_steps: int = 0
    pruned_steps: int = 0
    folded_constants: int = 0

    @classmethod
    def from_design(cls, design: Design) -> "PlanBuild":
        """Collect a design's combinational assignments into a fresh build.

        Raises:
            SimulationError: for combinational dependency cycles.
        """
        module = design.top
        assignments, reads = _ordered_assignments(module)
        return cls(
            top_name=design.top_name,
            widths=_declared_widths(module),
            assignments=assignments,
            reads=reads,
            inputs=[port.name for port in module.ports
                    if port.direction == "input"],
            output_ports=[port.name for port in module.ports
                          if port.direction == "output"],
            key_port=design.key_port,
        )


# ---------------------------------------------------------------------------
# Dead-assignment pruning
# ---------------------------------------------------------------------------


def _prune(build: PlanBuild) -> None:
    """Drop assignments no output port transitively reads.

    Every reader of an assignment comes after it in the topological order,
    so one reverse walk decides liveness.
    """
    live: Set[str] = set(build.output_ports)
    kept: List[Tuple[str, ast.Expression]] = []
    for name, expr in reversed(build.assignments):
        if name in live:
            kept.append((name, expr))
            live.update(build.reads[name])
    build.pruned_steps = len(build.assignments) - len(kept)
    build.assignments = kept[::-1]


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------

#: Node types the folding pass may replace by a literal.
_FOLDABLE = HOISTABLE

#: Replication counts beyond this are left unfolded (guards against
#: compile-time blow-up on pathological constant replications).
_MAX_FOLD_REPLICATION = 1024


def _static_operand_width(expr: ast.Expression) -> Optional[int]:
    """The static operand width a folded literal must reproduce, if any.

    Mirrors ``ExpressionEvaluator._operand_width``: only bit- and static
    part-selects carry a non-default operand width, so only those need a
    *sized* replacement literal; every other node type reads as the default
    working width in its parent context and folds to an unsized literal.
    """
    if isinstance(expr, ast.BitSelect):
        return 1
    if isinstance(expr, ast.PartSelect):
        try:
            return abs(expr.msb.as_int() - expr.lsb.as_int()) + 1
        except (AttributeError, ValueError):
            return None
    return None


def _fold_literal(expr: ast.Expression,
                  evaluator: ExpressionEvaluator) -> Optional[ast.IntConst]:
    """Evaluate an identifier-free subexpression into a literal, if safe."""
    for node in expr.iter_tree():
        if isinstance(node, ast.Replication):
            try:
                count = evaluator.evaluate(node.count, {})
            except SimulationError:
                return None
            if count > _MAX_FOLD_REPLICATION:
                return None
    try:
        value = evaluator.evaluate(expr, {})
    except (SimulationError, ValueError):
        return None
    if value < 0:  # pragma: no cover - evaluator results are masked/unsigned
        return None
    width = _static_operand_width(expr)
    if width is None:
        return ast.IntConst(str(value))
    if value >= (1 << width):  # pragma: no cover - select results fit
        return None
    return ast.IntConst(f"{width}'d{value}")


def _fold(build: PlanBuild) -> None:
    """Replace identifier-free subexpressions by literal constants.

    The rewrite is copy-on-write: the design's AST is never mutated (locking
    holds live node references into it), only the build's expression list is
    re-pointed at folded trees.  Folding uses the *scalar*
    :class:`~repro.sim.evaluator.ExpressionEvaluator`, so a folded constant
    is by construction the value the reference oracle computes for the
    subtree.  The bounds of part-selects are left untouched — their
    ``IntConst``-ness decides the select's static operand width, which a
    rewrite could change.
    """
    evaluator = ExpressionEvaluator(build.widths,
                                    default_width=WORKING_WIDTH)

    def fold(node: ast.Expression) -> Tuple[ast.Expression, bool, int]:
        # One bottom-up walk: (node folded, whether it reads a signal,
        # literals made).  A foldable node that reads no signal becomes one
        # literal, dropping the folds made below it.  Part-select bounds
        # are walked for their reads only.
        reads, made, replacement = isinstance(node, ast.Identifier), 0, None
        for field_name in node._fields:
            value = getattr(node, field_name)
            many = isinstance(value, (list, tuple))
            new_items, field_made, changed = [], 0, False
            for old in value if many else (value,):
                new = old
                if isinstance(old, ast.Expression):
                    new, new_reads, new_made = fold(old)
                    reads = reads or new_reads
                    field_made += new_made
                new_items.append(new)
                changed = changed or new is not old
            if not changed or (isinstance(node, ast.PartSelect)
                               and field_name in ("msb", "lsb")):
                continue
            made += field_made
            if replacement is None:
                replacement = copy.copy(node)
            setattr(replacement, field_name,
                    new_items if many else new_items[0])
        if isinstance(node, _FOLDABLE) and not reads:
            literal = _fold_literal(node, evaluator)
            return (node, False, 0) if literal is None else (literal, False, 1)
        return replacement if replacement is not None else node, reads, made

    folded = [(name, *fold(expr)) for name, expr in build.assignments]
    build.assignments = [(name, expr) for name, expr, _, _ in folded]
    build.folded_constants = sum(made for _, _, _, made in folded)


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------


def _cse(build: PlanBuild) -> None:
    """Mark subexpressions occurring more than once for shared lowering."""
    build.shared = shared_subexpressions(
        (expr for _, expr in build.assignments), build.key_memo)


# ---------------------------------------------------------------------------
# Sweep value-numbering
# ---------------------------------------------------------------------------


def _worth_hoisting(node: ast.Expression) -> bool:
    """Subtrees containing real computation pay for a hoisted slot."""
    return any(isinstance(sub, (ast.BinaryOp, ast.UnaryOp, ast.TernaryOp,
                                ast.Concat, ast.Replication))
               for sub in node.iter_tree())


def _sweep_vn(build: PlanBuild) -> None:
    """Collect point-invariant work inside the key cone for ``$vnN`` slots.

    The pass walks key-port dependence through the topologically ordered
    assignments; assignments outside the key cone are fully point-invariant
    already, and the sweep executor hoists them out of the S×V lanes on its
    own.  For assignments *inside* the cone one bottom-up walk collects the
    maximal hoistable subexpressions whose reads avoid the key cone —
    the value-numbered ``$vnN`` slots, each evaluated once per V-lane base
    batch however many sweep points re-use it.
    """
    if build.key_port is None:
        return
    dependent: Set[str] = {build.key_port}
    found: List[ast.Expression] = []

    def collect(node: ast.Expression) -> bool:
        # Whether ``node`` reads the key cone; a hoistable node that does
        # not replaces the nodes ``found`` below it, so only maximal ones stay.
        start = len(found)
        varying = isinstance(node, ast.Identifier) and node.name in dependent
        for child in node.children():
            varying |= collect(child)
        if not varying and isinstance(node, HOISTABLE):
            del found[start:]
            found.append(node)
        return varying

    for name, expr in build.assignments:
        if build.reads[name] & dependent:
            dependent.add(name)
            collect(expr)
    build.invariant_keys = frozenset(structural_key(node, build.key_memo)
                                     for node in found
                                     if _worth_hoisting(node))


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _lower(build: PlanBuild) -> None:
    """Lower the assignment IR into executable bit-slice steps."""
    compiler = ExpressionCompiler(build.widths,
                                  shared=build.shared,
                                  invariant=build.invariant_keys,
                                  key_port=build.key_port,
                                  key_memo=build.key_memo)
    steps: List[Step] = []
    driven: Set[str] = set()
    for name, expr in build.assignments:
        fn, _, reads, key_bits = compiler.compile_step(expr)
        steps.extend(compiler.take_pending_steps())
        steps.append(Step(target=name, width=compiler.width_of(name),
                          fn=fn, reads=frozenset(reads),
                          key_bits=tuple(sorted(key_bits))))
        driven.add(name)
    build.outputs = [name for name in build.output_ports
                     if name in driven]
    build.cse_steps = compiler.cse_slot_count
    build.vn_steps = compiler.vn_slot_count
    build.steps = steps


def compile_plan(design: Design) -> EvalPlan:
    """Compile ``design`` into an :class:`~repro.sim.plan.steps.EvalPlan`.

    Runs prune → fold → cse → sweep-vn → lower (the module docstring says
    what each does), so only live logic is compiled.  Every pass is
    value-neutral: outputs are bit-identical to the scalar oracle's.

    Raises:
        SimulationError: for combinational dependency cycles, dead logic
            included (the ordering sees every assignment).
        BatchCompileError: for constructs the plan cannot express statically
            in logic an output reads.
    """
    build = PlanBuild.from_design(design)
    _prune(build)
    _fold(build)
    _cse(build)
    _sweep_vn(build)
    _lower(build)

    # Steps a key sweep hoists: the executor's own classifier, so the
    # count and the runtime hoisting can never diverge.
    varying = {build.key_port} if build.key_port is not None else set()
    invariant, _ = classify_steps(build.steps, build.inputs, varying)
    stats = PlanStats(
        steps=len(build.steps),
        cse_steps=build.cse_steps,
        pruned_steps=build.pruned_steps,
        folded_constants=build.folded_constants,
        hoisted_subexprs=build.vn_steps,
        invariant_steps=len(invariant),
    )
    return EvalPlan(steps=build.steps, inputs=build.inputs,
                    outputs=build.outputs, widths=build.widths,
                    key_port=build.key_port, stats=stats)
