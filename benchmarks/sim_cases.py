"""The simulation case table: each fast path against the path it replaces.

Every question is one row of :data:`CASES`: scalar vs. batch engine
(``engines``), per-key ``run_batch`` loop vs. one per-lane sweep
(``key_sweeps``), flat vs. sweep value-numbered sweep (``sweep_vn``),
unchunked vs. ``max_lanes``-tiled sweep, timed and
``tracemalloc``-profiled (``pipelined_sweep``), and the tiled count of
single-bit key flips vs. the cone path of ``sweep_differences``
(``key_flips``).  Every comparison also
checks ``baseline_outputs == candidate_outputs``, so a reported speedup is
only ever produced alongside a bit-identical result.

The gates in ``test_substrate_performance.py`` call :func:`compare`; its
case-table test runs :func:`run_cases`, fails through
:func:`assert_outputs_match` if any two paths disagree and writes
``results/BENCH_sim.json`` (:func:`report_json`)::

    PYTHONPATH=src python -m pytest benchmarks/test_substrate_performance.py -q -k case_table
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.rtlir.design import Design
from repro.sim import BatchSimulator, CombinationalSimulator, differing_lanes
from repro.sim.plan.executor import (_key_bit_matrix, _pack_swept_keys,
                                     batch_release, block_lanes,
                                     execute_steps, key_cones, pack_values,
                                     unpack_values)
from repro.sim.vectors import batch_to_vectors, random_input_batch, random_key

#: A labelled benchmark design.
Suite = List[Tuple[str, Design]]


@dataclass(frozen=True)
class Sizes:
    """Workload sizes shared by every case (each case reads what it needs).

    Attributes:
        vectors: Input vectors of the ``engines`` and ``key_sweeps`` cases.
        keys: Key hypotheses (sweep points) of the three random-key sweep
            cases (``key_flips`` sweeps one point per key bit).
        vn_vectors: Shared base lanes of the three wide-sweep cases
            (``sweep_vn``, ``pipelined_sweep`` and ``key_flips``).
        max_lanes: Lane cap per tile of the ``pipelined_sweep`` candidate.
    """

    vectors: int = 256
    keys: int = 64
    vn_vectors: int = 512
    max_lanes: int = 16384

    def __post_init__(self) -> None:
        for name in ("vectors", "keys", "vn_vectors", "max_lanes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Case:
    """One row of the case table.

    Attributes:
        name: Case name, also its ``BENCH_sim.json`` section.
        baseline: Label of the reference path.
        candidate: Label of the fast path.
        setup: ``setup(design, rng, sizes) -> (baseline, candidate,
            counters)`` — the two zero-argument paths to time and the
            sizes and plan counters reported beside them.
        suite: ``suite(scale, seed)`` — the case's designs.
        locked_only: The case needs a key port; unlocked designs are skipped.
        measure_memory: Also record the ``tracemalloc`` peak of each path.
    """

    name: str
    baseline: str
    candidate: str
    setup: Callable[[Design, random.Random, Sizes], tuple]
    suite: Callable[[float, int], Suite]
    locked_only: bool = True
    measure_memory: bool = False


@dataclass
class Comparison:
    """Timing (and optionally peak memory) of one case on one design.

    Attributes:
        case: The measured case.
        design: Reported design name.
        baseline_seconds: Median wall time of one baseline call.
        candidate_seconds: Median wall time of one candidate call.
        outputs_match: True when both paths produced identical outputs.
        counters: Case-specific sizes and plan counters.
        baseline_peak_bytes: ``tracemalloc`` peak of one baseline run
            (memory-measuring cases only).
        candidate_peak_bytes: Same for the candidate path.
    """

    case: Case
    design: str
    baseline_seconds: float
    candidate_seconds: float
    outputs_match: bool
    counters: Dict[str, object] = field(default_factory=dict)
    baseline_peak_bytes: Optional[int] = None
    candidate_peak_bytes: Optional[int] = None

    @property
    def speedup(self) -> float:
        """Baseline time over candidate time (1.0 = no gain)."""
        if self.candidate_seconds <= 0.0:
            return float("inf")
        return self.baseline_seconds / self.candidate_seconds

    @property
    def memory_ratio(self) -> Optional[float]:
        """Candidate peak over baseline peak (smaller is better; ``None``
        unless the case measures memory)."""
        if not self.baseline_peak_bytes:
            return None
        return self.candidate_peak_bytes / self.baseline_peak_bytes


# ---------------------------------------------------------------------------
# The flat sweep reference
# ---------------------------------------------------------------------------


def _block_comb(block: int, points: int) -> int:
    """``points`` copies of lane 0's bit, one per ``block``-lane block:
    multiplying a block-lane word by it copies the word into every block."""
    return ((1 << block * points) - 1) // ((1 << block) - 1)


def flat_sweep(simulator: BatchSimulator, inputs: Mapping[str, Sequence[int]],
               keys: Sequence[Sequence[int]], n: int) -> List[dict]:
    """``run_sweep``'s result with every plan step on all S×V lanes.

    The sweep before value-numbering: the base batch is packed at V lanes
    and each input word tiled into the S point blocks by the comb multiply,
    one key is packed per point, and the whole plan runs on the S×V lanes.
    A point block is V rounded up to whole bytes, as in ``run_sweep``; its
    pad lanes are not read.  No argument checks and no point tiles: the
    reference of the ``sweep_vn`` gate, at sizes far below every plan's
    lane cap.
    """
    plan = simulator.plan
    port, points, block = plan.key_port, len(keys), block_lanes(n)
    lanes, comb = points * block, _block_comb(block, points)
    env = {}
    for name in plan.inputs:
        width = plan.width_of(name)
        words = pack_values(inputs[name], width) if name in inputs \
            else [0] * width
        env[name] = [word * comb for word in words]
    env[port] = _pack_swept_keys(_key_bit_matrix(keys, plan.width_of(port)),
                                 block)
    execute_steps(plan.steps, env, (1 << lanes) - 1, batch_release(plan))
    values = {name: unpack_values(env[name], lanes) for name in plan.outputs}
    return [{name: values[name][start:start + n] for name in plan.outputs}
            for start in range(0, lanes, block)]


# ---------------------------------------------------------------------------
# Case setups
# ---------------------------------------------------------------------------


def _engine_setup(design: Design, rng: random.Random, sizes: Sizes):
    n = sizes.vectors
    key = design.correct_key if design.is_locked else None
    scalar = CombinationalSimulator(design)
    compile_start = time.perf_counter()
    batch = BatchSimulator(design)
    compile_ms = (time.perf_counter() - compile_start) * 1e3
    packed = random_input_batch(design, rng, n)
    vector_list = batch_to_vectors(packed, n)

    def run_scalar() -> Dict[str, List[int]]:
        outputs = [scalar.run(vector, key=key) for vector in vector_list]
        return {name: [out[name] for out in outputs]
                for name in scalar.output_names}

    def run_batch() -> Dict[str, List[int]]:
        return batch.run_batch(packed, key=key, n=n)

    return run_scalar, run_batch, {"vectors": n, "compile_ms": compile_ms}


def _sweep_inputs(design: Design, rng: random.Random, keys: int,
                  vectors: int):
    """One plan, one shared batch and one key list; ``run(**options)``
    makes a zero-argument ``run_sweep`` path over them."""
    simulator = BatchSimulator(design)
    batch = random_input_batch(design, rng, vectors)
    key_list = [random_key(design.key_width, rng) for _ in range(keys)]

    def run(**options) -> Callable[[], List[dict]]:
        return lambda: simulator.run_sweep(batch, keys=key_list, n=vectors,
                                           **options)

    return simulator, batch, key_list, run


def _key_sweep_setup(design: Design, rng: random.Random, sizes: Sizes):
    n = sizes.vectors
    simulator, batch, keys, run = _sweep_inputs(design, rng, sizes.keys, n)

    def run_loop() -> List[dict]:
        return [simulator.run_batch(batch, key=key, n=n) for key in keys]

    stats = simulator.plan.stats
    return run_loop, run(), {"keys": sizes.keys, "vectors": n,
                             "cse_steps": stats.cse_steps,
                             "pruned_steps": stats.pruned_steps}


def _sweep_vn_setup(design: Design, rng: random.Random, sizes: Sizes):
    # The reference evaluates the same steps without hoisting, so the delta
    # is what sweep value-numbering buys.
    n = sizes.vn_vectors
    simulator, batch, keys, run = _sweep_inputs(design, rng, sizes.keys, n)
    stats = simulator.plan.stats
    return (lambda: flat_sweep(simulator, batch, keys, n)), run(), {
        "keys": sizes.keys, "vectors": n,
        "invariant_steps": stats.invariant_steps,
        "total_steps": stats.steps,
        "hoisted_subexprs": stats.hoisted_subexprs}


def _pipelined_setup(design: Design, rng: random.Random, sizes: Sizes):
    # Only the lane limit differs, so the delta is the pipelining overhead.
    # The explicit full-width limit keeps the reference unchunked even when
    # the plan's own cap (``auto_max_lanes``) is smaller than the sweep.
    n, max_lanes = sizes.vn_vectors, sizes.max_lanes
    _, _, _, run = _sweep_inputs(design, rng, sizes.keys, n)
    tile_points = max(1, max_lanes // block_lanes(n))
    return run(max_lanes=sizes.keys * n), run(max_lanes=max_lanes), {
        "keys": sizes.keys, "vectors": n, "max_lanes": max_lanes,
        "tiles": -(-sizes.keys // tile_points)}


def _key_flips_setup(design: Design, rng: random.Random, sizes: Sizes):
    # Key-sensitivity's sweep: the all-zero key, then each one-hot key.
    # The reference counts the differences on run_sweep's values, so it
    # runs every varying step on all S×V lanes in tiles; the candidate
    # re-runs only each flipped bit's cone.
    n = sizes.vn_vectors
    simulator = BatchSimulator(design)
    batch = random_input_batch(design, rng, n)
    zeros = [0] * design.key_width
    keys = [zeros] + [zeros[:index] + [1] + zeros[index + 1:]
                      for index in range(design.key_width)]

    def tiled() -> Tuple[List[int], List[int]]:
        reference, *others = simulator.run_sweep(batch, keys=keys, n=n)
        lanes, bits = [], []
        for run in others:
            differing = differing_lanes(reference, run, n=n)
            lanes.append(len(differing))
            bits.append(sum((reference[name][lane]
                             ^ run[name][lane]).bit_count()
                            for lane in differing for name in reference))
        return lanes, bits

    def cones() -> Tuple[List[int], List[int]]:
        counted = simulator.sweep_differences(batch, keys=keys, n=n)
        return counted.lanes, counted.bits

    plan = simulator.plan
    return tiled, cones, {
        "keys": len(keys), "vectors": n, "total_steps": len(plan.steps),
        "cone_steps": sum(len(cone) for cone in key_cones(plan).steps)}


# ---------------------------------------------------------------------------
# Design suites
# ---------------------------------------------------------------------------


def _era_locked(benchmark: str, scale: float, seed: int) -> Design:
    from repro.bench import load_benchmark
    from repro.locking.era import ERALocker

    base = load_benchmark(benchmark, scale=scale, seed=seed)
    budget = max(1, int(0.75 * base.num_operations()))
    return ERALocker(rng=random.Random(seed),
                     track_metrics=False).lock(base, budget).design


def default_suite(scale: float = 0.25, seed: int = 0) -> Suite:
    """The engine-comparison designs: plain, locked, and imbalanced.

    The ERA-locked entry carries the heaviest shared-subexpression load
    (dummy operations duplicate operand subtrees), so it exercises the CSE
    pass of the plan compiler.
    """
    from repro.bench import load_benchmark, plus_network
    from repro.locking.assure import AssureLocker

    plus = plus_network(128, n_inputs=8, name="plus_128")
    md5 = load_benchmark("MD5", scale=scale, seed=seed)
    budget = max(1, int(0.75 * md5.num_operations()))
    locked = AssureLocker("serial", rng=random.Random(seed),
                          track_metrics=False).lock(md5, budget).design
    return [("plus_128", plus), ("md5_scaled", md5),
            ("md5_scaled_locked", locked),
            ("md5_scaled_era", _era_locked("MD5", scale, seed))]


def pipelined_suite(scale: float = 0.25, seed: int = 0) -> Suite:
    """The headline sweep design: ERA-locked I2C_SL.

    ERA's randomised pair selection on a control-dominated design leaves
    most of the logic cone outside the key muxes, so sweep value-numbering
    hoists the bulk of the plan out of the S×V lanes; its wide sweep with
    narrow outputs is also the memory-gate shape of the pipelined sweep.
    """
    return [("i2c_sl_era", _era_locked("I2C_SL", scale, seed))]


def sweep_vn_suite(scale: float = 0.25, seed: int = 0) -> Suite:
    """:func:`pipelined_suite` plus the chained worst case ``md5_scaled_era``.

    The deep MD5 key cone leaves little to hoist, so the report always shows
    both ends of the value-numbering spectrum.
    """
    return pipelined_suite(scale, seed) + [
        ("md5_scaled_era", _era_locked("MD5", scale, seed))]


def key_flips_suite(scale: float = 0.25, seed: int = 0) -> Suite:
    """ERA-locked MD5, the heaviest key-sensitivity design of the suites:
    its deep key cone leaves the tiles little to hoist."""
    return [("md5_scaled_era", _era_locked("MD5", scale, seed))]


# ---------------------------------------------------------------------------
# The case table and the harness
# ---------------------------------------------------------------------------

ENGINES = Case("engines", "scalar", "batch", _engine_setup, default_suite,
               locked_only=False)
KEY_SWEEPS = Case("key_sweeps", "loop", "sweep", _key_sweep_setup,
                  default_suite)
SWEEP_VN = Case("sweep_vn", "flat", "hoisted", _sweep_vn_setup,
                sweep_vn_suite)
PIPELINED_SWEEP = Case("pipelined_sweep", "full", "tiled", _pipelined_setup,
                       pipelined_suite, measure_memory=True)
KEY_FLIPS = Case("key_flips", "tiled", "cones", _key_flips_setup,
                 key_flips_suite)

#: Every comparison :func:`run_cases` makes, in report order.
CASES: Tuple[Case, ...] = (ENGINES, KEY_SWEEPS, SWEEP_VN, PIPELINED_SWEEP,
                           KEY_FLIPS)


#: Wall time of one timing sample: a path faster than this is looped
#: until one sample holds about this much work.
SAMPLE_SECONDS = 0.1


def _sample(fn: Callable[[], object], loops: int) -> float:
    """Mean wall time of one call over ``loops`` back-to-back calls."""
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return (time.perf_counter() - start) / loops


def _median_times(baseline: Callable[[], object],
                  candidate: Callable[[], object], repeats: int
                  ) -> Tuple[float, object, float, object]:
    """Median per-call times and outputs of two paths, timed interleaved.

    One untimed call of each path gives its outputs and its loop count.
    Then ``repeats`` rounds each time one sample of both paths, in
    alternating order, so a slow spell of the host falls on both paths
    instead of on whichever ran during it.
    """
    paths = (baseline, candidate)
    outputs, loops = [], []
    for fn in paths:
        start = time.perf_counter()
        outputs.append(fn())
        once = time.perf_counter() - start
        loops.append(max(1, round(SAMPLE_SECONDS / max(once, 1e-6))))
    samples: Tuple[List[float], List[float]] = ([], [])
    for round_index in range(repeats):
        order = (0, 1) if round_index % 2 == 0 else (1, 0)
        for index in order:
            samples[index].append(_sample(paths[index], loops[index]))
    return (statistics.median(samples[0]), outputs[0],
            statistics.median(samples[1]), outputs[1])


def _peak_bytes(fn: Callable[[], object]) -> int:
    """``tracemalloc`` peak of one untimed run (tracing slows execution)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def compare(case: Case, design: Design, sizes: Sizes = Sizes(),
            rng: Optional[random.Random] = None, repeats: int = 3,
            label: Optional[str] = None) -> Comparison:
    """Time ``case``'s two paths on ``design`` and cross-check their outputs.

    The two paths are timed interleaved, each sample looped to about
    :data:`SAMPLE_SECONDS` of work, and each path's median is reported.

    Args:
        case: Row of the case table to run.
        design: Design to measure (locked for ``locked_only`` cases).
        sizes: Workload sizes.
        rng: Random source for input vectors and key hypotheses.
        repeats: Timing samples of each path, taken interleaved; the
            median of each path is kept (see :data:`SAMPLE_SECONDS`).
        label: Reported design name (defaults to ``design.name``).

    Raises:
        ValueError: for non-positive ``repeats`` or an unlocked design on a
            ``locked_only`` case.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    if case.locked_only and not design.is_locked:
        raise ValueError(f"the {case.name} case requires a locked design")
    baseline, candidate, counters = case.setup(
        design, rng or random.Random(0), sizes)
    (baseline_seconds, baseline_outputs,
     candidate_seconds, candidate_outputs) = _median_times(
        baseline, candidate, repeats)
    result = Comparison(case=case, design=label or design.name,
                        baseline_seconds=baseline_seconds,
                        candidate_seconds=candidate_seconds,
                        outputs_match=baseline_outputs == candidate_outputs,
                        counters=counters)
    if case.measure_memory:
        result.baseline_peak_bytes = _peak_bytes(baseline)
        result.candidate_peak_bytes = _peak_bytes(candidate)
    return result


def run_cases(sizes: Sizes = Sizes(), scale: float = 0.25, seed: int = 0,
              repeats: int = 3) -> Dict[str, List[Comparison]]:
    """Run every :data:`CASES` row over its suite; ``{case name:
    comparisons}`` (``locked_only`` cases skip unlocked designs).

    Args:
        sizes: Workload sizes.
        scale: Benchmark scale of the suites.
        seed: Seed of the suites and of every comparison's rng.
        repeats: Timing samples per path (median kept).
    """
    return {case.name: [compare(case, design, sizes, rng=random.Random(seed),
                                repeats=repeats, label=label)
                        for label, design in case.suite(scale, seed)
                        if design.is_locked or not case.locked_only]
            for case in CASES}


def assert_outputs_match(results: Dict[str, List[Comparison]]) -> None:
    """Fail, naming each ``case/design``, where two paths disagree."""
    disagree = [f"{name}/{item.design}" for name, items in results.items()
                for item in items if not item.outputs_match]
    assert not disagree, ("measured paths disagree, the batch plan is "
                          f"unsound here: {', '.join(disagree)}")


def report_json(results: Dict[str, List[Comparison]]) -> Dict[str, object]:
    """Serialise :func:`run_cases` results for ``BENCH_sim.json``.

    One section per case, and every entry has the same keys: the design,
    the two path labels, the case counters, both times, the speedup, both
    ``tracemalloc`` peaks and their ratio (``null`` unless the case measures
    memory), and the output check.
    """
    return {name: [{"design": item.design,
                    "baseline": item.case.baseline,
                    "candidate": item.case.candidate,
                    **item.counters,
                    "baseline_ms": item.baseline_seconds * 1e3,
                    "candidate_ms": item.candidate_seconds * 1e3,
                    "speedup": item.speedup,
                    "baseline_peak_bytes": item.baseline_peak_bytes,
                    "candidate_peak_bytes": item.candidate_peak_bytes,
                    "memory_ratio": item.memory_ratio,
                    "outputs_match": item.outputs_match}
                   for item in comparisons]
            for name, comparisons in results.items()}
