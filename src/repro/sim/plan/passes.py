"""The pass pipeline: an ordered, individually-toggleable plan optimiser.

:func:`compile_plan` turns a design into an :class:`~repro.sim.plan.steps.EvalPlan`
by running a :class:`PassManager` over a mutable :class:`PlanBuild`:

``fold`` → ``cse`` → ``sweep-vn`` → ``lower`` → ``prune``

* **fold** (:class:`ConstantFoldingPass`) — identifier-free subexpressions
  are evaluated once at compile time with the *scalar* expression evaluator
  and replaced by literal constants, preserving each node's static
  operand-width semantics exactly.
* **cse** (:class:`CommonSubexpressionPass`) — structural keys of
  subexpressions occurring more than once; the lowering emits each as one
  shared ``$cseN`` step.
* **sweep-vn** (:class:`SweepValueNumberingPass`) — *sweep value-numbering*:
  walks key-port dependence through the assignment list, collects the
  maximal point-invariant subexpressions inside point-varying assignments
  (lowered into ``$vnN`` steps), and arms the point-invariant tagging of the
  lowered steps, so :meth:`BatchSimulator.run_sweep
  <repro.sim.plan.executor.BatchSimulator.run_sweep>` evaluates invariant
  work once per V-lane base batch instead of once per S×V sweep lane.
* **lower** (:class:`LowerPass`) — AST expressions → bit-slice closures via
  :class:`~repro.sim.plan.lowering.ExpressionCompiler` (always present; the
  pipeline inserts it when a custom pass list omits it).
* **prune** (:class:`PrunePass`) — steps no combinational output
  transitively reads are dropped.

All passes are value-neutral: a plan compiled with any subset of them is
bit-identical to the all-passes plan and to the scalar AST oracle — the
golden suite in ``tests/sim/test_passes.py`` pins this per pass.  What each
pass did is recorded as a per-pass step delta in ``plan.stats.passes``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ...rtlir.design import Design
from ...verilog import ast_nodes as ast
from ..evaluator import ExpressionEvaluator, SimulationError
from .lowering import ExpressionCompiler
from .steps import (HOISTABLE, WORKING_WIDTH, EvalPlan, PassDelta, PlanStats,
                    Step, _declared_widths, _ordered_assignments,
                    expression_reads, shared_subexpressions, structural_key)

#: Canonical pass order; custom ``passes`` lists are normalised onto it.
PASS_ORDER = ("fold", "cse", "sweep-vn", "lower", "prune")


@dataclass
class PlanBuild:
    """Mutable build state the passes transform.

    Before the ``lower`` pass the IR is the ``assignments`` list (name →
    AST expression, topologically ordered) plus analysis annotations
    (``shared``, ``invariant_keys``); afterwards it is the ``steps`` list of
    lowered :class:`~repro.sim.plan.steps.Step` objects.
    """

    top_name: str
    widths: Dict[str, int]
    assignments: List[Tuple[str, ast.Expression]]
    inputs: List[str]
    output_ports: List[str]
    key_port: Optional[str]
    shared: FrozenSet[tuple] = frozenset()
    invariant_keys: FrozenSet[tuple] = frozenset()
    sweep_vn: bool = False
    sweep_hoist: bool = False
    steps: Optional[List[Step]] = None
    outputs: List[str] = field(default_factory=list)
    cse_steps: int = 0
    vn_steps: int = 0
    pruned_steps: int = 0
    folded_constants: int = 0
    pass_deltas: Tuple[PassDelta, ...] = ()

    @classmethod
    def from_design(cls, design: Design) -> "PlanBuild":
        """Collect a design's combinational assignments into a fresh build.

        Raises:
            SimulationError: for combinational dependency cycles.
        """
        module = design.top
        return cls(
            top_name=design.top_name,
            widths=_declared_widths(module),
            assignments=_ordered_assignments(module),
            inputs=[port.name for port in module.ports
                    if port.direction == "input"],
            output_ports=[port.name for port in module.ports
                          if port.direction == "output"],
            key_port=design.key_port,
        )

    def step_count(self) -> int:
        """Current IR size: lowered steps, or assignments before lowering."""
        if self.steps is not None:
            return len(self.steps)
        return len(self.assignments)


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


class ConstantFoldingPass:
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

    name = "fold"

    def run(self, build: PlanBuild) -> str:
        evaluator = ExpressionEvaluator(build.widths,
                                        default_width=WORKING_WIDTH)
        folded = 0

        def fold(node: ast.Expression) -> ast.Expression:
            nonlocal folded
            if isinstance(node, _FOLDABLE) and not expression_reads(node):
                literal = _fold_literal(node, evaluator)
                if literal is not None:
                    folded += 1
                    return literal
                return node
            replacement = None
            for field_name in node._fields:
                if isinstance(node, ast.PartSelect) \
                        and field_name in ("msb", "lsb"):
                    continue
                value = getattr(node, field_name)
                if isinstance(value, ast.Expression):
                    new_child = fold(value)
                    if new_child is not value:
                        if replacement is None:
                            replacement = copy.copy(node)
                        setattr(replacement, field_name, new_child)
                elif isinstance(value, (list, tuple)):
                    new_items = [fold(item)
                                 if isinstance(item, ast.Expression) else item
                                 for item in value]
                    if any(new is not old
                           for new, old in zip(new_items, value)):
                        if replacement is None:
                            replacement = copy.copy(node)
                        setattr(replacement, field_name, list(new_items))
            return replacement if replacement is not None else node

        build.assignments = [(name, fold(expr))
                             for name, expr in build.assignments]
        build.folded_constants = folded
        return f"{folded} constant subexpression(s) folded"


# ---------------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------------


class CommonSubexpressionPass:
    """Mark subexpressions occurring more than once for shared lowering."""

    name = "cse"

    def run(self, build: PlanBuild) -> str:
        build.shared = shared_subexpressions(expr for _, expr
                                             in build.assignments)
        return f"{len(build.shared)} shared subexpression(s)"


# ---------------------------------------------------------------------------
# Sweep value-numbering
# ---------------------------------------------------------------------------


def _worth_hoisting(node: ast.Expression) -> bool:
    """Subtrees containing real computation pay for a hoisted slot."""
    return any(isinstance(sub, (ast.BinaryOp, ast.UnaryOp, ast.TernaryOp,
                                ast.Concat, ast.Replication))
               for sub in node.iter_tree())


class SweepValueNumberingPass:
    """Tag point-invariant work so sweeps stop re-evaluating it per point.

    The pass walks key-port dependence through the topologically ordered
    assignments; assignments outside the key cone are fully point-invariant
    already (they will be tagged at lowering and hoisted out of the S×V
    lanes by the sweep executor).  For assignments *inside* the cone it
    collects the maximal hoistable subexpressions whose transitive reads
    avoid the key cone — the value-numbered ``$vnN`` slots, each evaluated
    once per V-lane base batch however many sweep points re-use it.
    """

    name = "sweep-vn"

    def run(self, build: PlanBuild) -> str:
        build.sweep_vn = True
        if build.key_port is None:
            return "no key port; whole-step invariance tagging only"
        dependent: Set[str] = {build.key_port}
        memo: Dict[int, tuple] = {}
        keys: Set[tuple] = set()

        def collect(node: ast.Expression) -> None:
            if isinstance(node, HOISTABLE) \
                    and not (expression_reads(node) & dependent):
                if _worth_hoisting(node):
                    keys.add(structural_key(node, memo))
                return
            for child in node.children():
                if isinstance(child, ast.Expression):
                    collect(child)

        varying_assignments = 0
        for name, expr in build.assignments:
            if not (expression_reads(expr) & dependent):
                continue
            dependent.add(name)
            varying_assignments += 1
            collect(expr)

        build.invariant_keys = frozenset(keys)
        return (f"{len(keys)} invariant subexpression(s) in "
                f"{varying_assignments} key-dependent assignment(s)")


# ---------------------------------------------------------------------------
# Lowering and pruning
# ---------------------------------------------------------------------------


class LowerPass:
    """Lower the assignment IR into executable bit-slice steps."""

    name = "lower"

    def run(self, build: PlanBuild) -> str:
        compiler = ExpressionCompiler(build.widths,
                                      shared=build.shared,
                                      invariant=build.invariant_keys)
        steps: List[Step] = []
        driven: Set[str] = set()
        for name, expr in build.assignments:
            fn, _, reads = compiler.compile_step(expr)
            steps.extend(compiler.take_pending_steps())
            steps.append(Step(target=name, width=compiler.width_of(name),
                              fn=fn, reads=frozenset(reads)))
            driven.add(name)
        build.outputs = [name for name in build.output_ports
                         if name in driven]
        build.cse_steps = compiler.cse_slot_count
        build.vn_steps = compiler.vn_slot_count

        if build.sweep_vn:
            # Whole-step invariance w.r.t. the key port — computed by the
            # same classifier the sweep executor runs, so the compile-time
            # tags and the runtime hoisting can never diverge.
            from .executor import classify_steps

            varying = {build.key_port} if build.key_port is not None \
                else set()
            invariant, _ = classify_steps(steps, build.inputs, varying)
            for step in invariant:
                step.point_invariant = True
            build.sweep_hoist = True

        build.steps = steps
        return (f"{len(steps)} step(s): {compiler.cse_slot_count} $cse, "
                f"{compiler.vn_slot_count} $vn")


class PrunePass:
    """Drop steps no combinational output transitively reads."""

    name = "prune"

    def run(self, build: PlanBuild) -> str:
        assert build.steps is not None, "prune requires a lowered build"
        live: Set[str] = set(build.outputs)
        kept: List[Step] = []
        pruned = 0
        for step in reversed(build.steps):
            if step.target in live:
                kept.append(step)
                live.update(step.reads)
            else:
                pruned += 1
        build.steps = kept[::-1]
        build.pruned_steps = pruned
        return f"{pruned} dead step(s) removed"


# ---------------------------------------------------------------------------
# Pass manager
# ---------------------------------------------------------------------------

#: Factories of every registered pass, keyed by pass name.
PASS_FACTORIES = {
    "fold": ConstantFoldingPass,
    "cse": CommonSubexpressionPass,
    "sweep-vn": SweepValueNumberingPass,
    "lower": LowerPass,
    "prune": PrunePass,
}


class PassManager:
    """Run an ordered pass list over a build, recording per-pass deltas."""

    def __init__(self, passes: Sequence[object]) -> None:
        self.passes = list(passes)

    def run(self, build: PlanBuild) -> None:
        deltas: List[PassDelta] = []
        for pass_obj in self.passes:
            before = build.step_count()
            detail = pass_obj.run(build) or ""
            deltas.append(PassDelta(name=pass_obj.name, steps_before=before,
                                    steps_after=build.step_count(),
                                    detail=detail))
        build.pass_deltas = tuple(deltas)


def normalize_passes(passes: Sequence[str]) -> List[str]:
    """Validate a custom pass list and normalise it onto the canonical order.

    The mandatory ``lower`` pass is inserted when omitted; duplicates
    collapse; unknown names raise.

    Raises:
        ValueError: for pass names not in :data:`PASS_FACTORIES`.
    """
    unknown = sorted(set(passes) - set(PASS_FACTORIES))
    if unknown:
        raise ValueError(
            f"unknown plan pass(es): {', '.join(unknown)}; "
            f"registered: {', '.join(PASS_ORDER)}")
    wanted = set(passes) | {"lower"}
    return [name for name in PASS_ORDER if name in wanted]


def compile_plan(design: Design,
                 passes: Optional[Sequence[str]] = None) -> EvalPlan:
    """Compile ``design`` into an :class:`~repro.sim.plan.steps.EvalPlan`.

    Args:
        design: The design to compile.
        passes: Pass names to run (default: every pass of
            :data:`PASS_ORDER`; the module docstring says what each does),
            normalised onto the canonical order with ``lower`` inserted
            when omitted.

    All pass combinations are value-neutral: every compiled closure produces
    exactly its declared slice count, so outputs are bit-identical to the
    unoptimised plan and to the scalar oracle.  ``plan.stats`` records the
    per-pass step deltas.

    Raises:
        SimulationError: for combinational dependency cycles.
        BatchCompileError: for constructs the plan cannot express statically.
        ValueError: for unknown pass names.
    """
    names = normalize_passes(PASS_ORDER if passes is None else passes)

    build = PlanBuild.from_design(design)
    PassManager([PASS_FACTORIES[name]() for name in names]).run(build)
    assert build.steps is not None  # "lower" is always part of the pipeline

    stats = PlanStats(
        steps=len(build.steps),
        cse_steps=build.cse_steps,
        pruned_steps=build.pruned_steps,
        folded_constants=build.folded_constants,
        hoisted_subexprs=build.vn_steps,
        invariant_steps=sum(1 for step in build.steps
                            if step.point_invariant),
        passes=build.pass_deltas,
    )
    return EvalPlan(steps=build.steps, inputs=build.inputs,
                    outputs=build.outputs, widths=build.widths,
                    key_port=build.key_port, stats=stats,
                    sweep_hoist=build.sweep_hoist)
