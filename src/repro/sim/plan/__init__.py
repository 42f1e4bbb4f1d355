"""The staged plan compiler: IR → passes → executor.

``repro.sim.plan`` is the compilation pipeline behind the bit-parallel
engine.  A design lowers once into a flat plan of typed steps
(:mod:`~repro.sim.plan.steps`), five passes that always run in one order
optimise it (:mod:`~repro.sim.plan.passes`: dead-assignment pruning,
constant folding, CSE, sweep value-numbering, lowering), and a thin executor
(:mod:`~repro.sim.plan.executor`) runs the result — N vectors per
bit-parallel pass, or S×V sweep lanes per pass with point-invariant steps
hoisted to the V-lane base batch.  The scalar engine does not use plans: it
walks the AST and serves as the independent oracle.
Import its names from here or from :mod:`repro.sim`.
"""

from .executor import (
    DEFAULT_LANE_BITS_BUDGET,
    BatchSimulator,
    SweepDifferences,
    auto_max_lanes,
    classify_steps,
    differing_lanes,
    pack_values,
    plan_lane_bits,
    unpack_values,
)
from .lowering import ExpressionCompiler
from .passes import PlanBuild, compile_plan
from .steps import (
    WORKING_WIDTH,
    BatchCompileError,
    CompiledExpr,
    EvalPlan,
    PlanStats,
    Slices,
    Step,
)

__all__ = [
    "BatchCompileError",
    "BatchSimulator",
    "CompiledExpr",
    "DEFAULT_LANE_BITS_BUDGET",
    "EvalPlan",
    "ExpressionCompiler",
    "PlanBuild",
    "PlanStats",
    "Slices",
    "Step",
    "SweepDifferences",
    "WORKING_WIDTH",
    "auto_max_lanes",
    "classify_steps",
    "compile_plan",
    "differing_lanes",
    "pack_values",
    "plan_lane_bits",
    "unpack_values",
]
