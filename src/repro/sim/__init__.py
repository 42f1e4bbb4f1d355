"""Combinational RTL simulation: functional checks for locked designs.

Two engines, cross-checked against each other:

* :class:`CombinationalSimulator` — the scalar engine: one input vector at a
  time, walking the design's expression ASTs.  It shares no code with the
  compiled plans, so it is the independent reference oracle and the
  fallback for constructs the plan compiler cannot express.
* :class:`BatchSimulator` — the bit-parallel *fast path*: N vectors at once,
  bit-sliced into Python integers, executing the compiled :class:`EvalPlan`
  of the staged plan compiler in :mod:`repro.sim.plan` (IR → passes →
  executor).

:func:`compile_plan` always runs the same five passes in one order —
constant folding, common-subexpression elimination, **sweep
value-numbering** (hoist point-invariant subexpressions of key-dependent
assignments into their own steps, so :meth:`BatchSimulator.run_sweep`
evaluates them once per V-lane base batch instead of once per S×V sweep
lane), lowering and dead-step pruning — and counts what they did in
``plan.stats``.

Both validate the locking contract — with the correct key the locked design
is functionally equivalent to the original, with a wrong key the outputs are
corrupted.  :func:`check_equivalence` and :func:`output_corruption` use the
batch engine by default and fall back to the scalar oracle for constructs the
plan compiler cannot express.

On top of per-vector batching, three layers serve the metric and attack hot
loops:

* :func:`sweep_differences` / :meth:`BatchSimulator.sweep_differences` — N
  key hypotheses (or per-point input bindings) evaluate as lanes of *one*
  pass instead of N batch calls, reduced to how many lanes and output bits
  of each point differ from point 0, counted by XOR and popcount on the
  slice words without unpacking a lane; output corruption, key-bit
  sensitivity, input avalanche and functional KPA all run on it, and
  designs the plan compiler cannot express fall back to the scalar engine.
  A lane cap (the plan's own cap from :func:`auto_max_lanes`, or the
  ``max_lanes`` argument of :meth:`BatchSimulator.run_sweep`, the value
  form of the same sweep) streams million-lane sweeps through fixed-size
  point tiles with bounded peak memory and bit-identical results,
* :func:`get_plan` — a process-wide LRU plan cache keyed by
  :meth:`Design.fingerprint() <repro.rtlir.design.Design.fingerprint>`, so
  equivalence checks, metrics, KPA and SnapShot stop recompiling one design,
* :mod:`repro.sim.vectors` — the single seeded random-vector/key sampler all
  consumers draw from, making sweeps reproducible from one ``rng``.
"""

from .evaluator import ExpressionEvaluator, SimulationError, mask
from .plan import (
    DEFAULT_LANE_BITS_BUDGET,
    BatchCompileError,
    BatchSimulator,
    EvalPlan,
    PlanStats,
    Step,
    SweepDifferences,
    auto_max_lanes,
    compile_plan,
    differing_lanes,
    pack_values,
    plan_lane_bits,
    unpack_values,
)
from .plan_cache import (
    PlanCacheInfo,
    cached_simulator,
    clear_plan_cache,
    get_plan,
    plan_cache_info,
)
from .simulator import (
    ENGINES,
    CombinationalSimulator,
    EquivalenceReport,
    check_equivalence,
    output_corruption,
    sweep_differences,
)
from .vectors import (
    batch_to_vectors,
    input_signals,
    output_signals,
    random_input_batch,
    random_key,
    random_vector_batch,
    random_wrong_key,
)

__all__ = [
    "ExpressionEvaluator",
    "SimulationError",
    "mask",
    "CombinationalSimulator",
    "EquivalenceReport",
    "check_equivalence",
    "output_corruption",
    "sweep_differences",
    "ENGINES",
    "DEFAULT_LANE_BITS_BUDGET",
    "BatchCompileError",
    "BatchSimulator",
    "EvalPlan",
    "PlanStats",
    "Step",
    "SweepDifferences",
    "auto_max_lanes",
    "compile_plan",
    "differing_lanes",
    "pack_values",
    "plan_lane_bits",
    "unpack_values",
    "PlanCacheInfo",
    "cached_simulator",
    "clear_plan_cache",
    "get_plan",
    "plan_cache_info",
    "batch_to_vectors",
    "input_signals",
    "output_signals",
    "random_input_batch",
    "random_key",
    "random_vector_batch",
    "random_wrong_key",
]
