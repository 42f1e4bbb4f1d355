"""Combinational simulation of (locked) RTL designs.

:class:`CombinationalSimulator` evaluates a design for one concrete input
vector at a time by walking its expression ASTs.  It shares no code with the
compiled plans of the bit-parallel :class:`~repro.sim.plan.BatchSimulator`,
which makes it the independent reference oracle of the cross-check suites
and the fallback for constructs the plan compiler cannot express.

Both engines validate the functional contract of locking:

* with the **correct key** the locked design computes the original function,
* with a **wrong key** the outputs (generally) differ — the output-corruption
  property that makes locking useful in the first place.

Sequential logic (always blocks) is outside this simulator's scope; designs
containing always blocks can still be simulated for their combinational
outputs, the registered outputs are simply not reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..rtlir.design import Design
from .evaluator import ExpressionEvaluator, SimulationError, mask
from .plan.executor import SweepDifferences, check_sweep
from .plan.steps import _declared_widths, _ordered_assignments


@dataclass
class EquivalenceReport:
    """Result of comparing two designs over random input vectors."""

    vectors: int
    mismatches: int
    first_mismatch: Optional[Dict[str, object]] = None

    @property
    def equivalent(self) -> bool:
        """True when no output differed on any tested vector."""
        return self.mismatches == 0

    @property
    def corruption_rate(self) -> float:
        """Fraction of vectors with at least one differing output."""
        return self.mismatches / self.vectors if self.vectors else 0.0


class CombinationalSimulator:
    """Evaluate the combinational outputs of a design, one vector at a time.

    Args:
        design: The design to simulate (locked or not).

    Raises:
        SimulationError: if the combinational assignments contain a
            dependency cycle.
    """

    def __init__(self, design: Design) -> None:
        self.design = design
        module = design.top
        self._widths = _declared_widths(module)
        self._evaluator = ExpressionEvaluator(self._widths)
        self._inputs = [port.name for port in module.ports
                        if port.direction == "input"]
        self._outputs = [port.name for port in module.ports
                         if port.direction == "output"]
        self._data_signals = [(name, self.width_of(name))
                              for name in self._inputs
                              if name != design.key_port]
        self._assignments = _ordered_assignments(module)

    # ------------------------------------------------------------- accessors

    @property
    def input_names(self) -> List[str]:
        """Primary input names (including the key port of a locked design)."""
        return list(self._inputs)

    @property
    def output_names(self) -> List[str]:
        """Primary output names driven by combinational logic."""
        driven = {name for name, _ in self._assignments}
        return [name for name in self._outputs if name in driven]

    def width_of(self, name: str) -> int:
        """Declared width of a signal."""
        return self._widths.get(name, self._evaluator.default_width)

    # ------------------------------------------------------------- simulation

    def run(self, inputs: Mapping[str, int],
            key: Optional[Sequence[int]] = None) -> Dict[str, int]:
        """Evaluate the design for one input vector.

        Args:
            inputs: Values for the primary data inputs (missing inputs default
                to 0; unknown names raise).
            key: Optional key-bit values applied to the design's key port
                (LSB first).  Ignored for unlocked designs.

        Returns:
            ``{output name: value}`` for every combinational output.

        Raises:
            SimulationError: for unknown input names or evaluation failures.
        """
        env: Dict[str, int] = {}
        for name, value in inputs.items():
            if name not in self._inputs:
                raise SimulationError(f"{name!r} is not an input of "
                                      f"{self.design.top_name!r}")
            env[name] = mask(int(value), self.width_of(name))
        for name in self._inputs:
            env.setdefault(name, 0)

        if self.design.key_port is not None and key is not None:
            env[self.design.key_port] = _pack_key(key)

        for name, expr in self._assignments:
            env[name] = mask(self._evaluator.evaluate(expr, env),
                             self.width_of(name))

        return {name: env[name] for name in self.output_names}

    def random_vector(self, rng: random.Random) -> Dict[str, int]:
        """Draw a random value for every data input (key port excluded)."""
        from .vectors import random_vector_batch
        batch = random_vector_batch(self._data_signals, rng, 1)
        return {name: values[0] for name, values in batch.items()}


def _pack_key(key: Sequence[int]) -> int:
    value = 0
    for position, bit in enumerate(key):
        if bit not in (0, 1):
            raise SimulationError(f"key bit {position} is not 0/1")
        value |= bit << position
    return value


# ---------------------------------------------------------------------------
# Equivalence / corruption checks
# ---------------------------------------------------------------------------


#: Simulation engines accepted by the equivalence/corruption helpers.
ENGINES = ("batch", "scalar")


def _batch_simulators(*designs: Design):
    """Try to build batch simulators for every design; None on compile gaps.

    Plans come from the process-wide cache, so repeated checks of the same
    designs (metric sweeps, per-sample attack validation) compile once.
    """
    from .plan import BatchCompileError
    from .plan_cache import cached_simulator
    try:
        return [cached_simulator(design) for design in designs]
    except BatchCompileError:
        return None


def check_equivalence(original: Design, locked: Design, key: Sequence[int],
                      vectors: int = 50,
                      rng: Optional[random.Random] = None,
                      engine: str = "batch") -> EquivalenceReport:
    """Compare a locked design under ``key`` against the original design.

    Args:
        original: The unlocked reference design.
        locked: The locked design.
        key: Key-bit values applied to the locked design.
        vectors: Number of random input vectors to test.
        rng: Random source for the input vectors.
        engine: ``batch`` (bit-parallel fast path, the default) or ``scalar``
            (the per-vector reference oracle).  Both engines draw the same
            vectors from ``rng`` and produce identical reports; designs the
            batch compiler cannot express fall back to scalar automatically.

    Returns:
        An :class:`EquivalenceReport`; ``report.equivalent`` is the verdict.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown simulation engine {engine!r}; "
                         f"expected one of {ENGINES}")
    rng = rng or random.Random()

    if engine == "batch" and vectors > 0:
        simulators = _batch_simulators(original, locked)
        if simulators is not None:
            reference, candidate = simulators
            common = set(reference.output_names) & set(candidate.output_names)
            batch = reference.random_batch(rng, vectors)
            expected = reference.run_batch(batch, n=vectors)
            actual = candidate.run_batch(batch, key=key, n=vectors)
            mismatches = 0
            first: Optional[Dict[str, object]] = None
            for lane in range(vectors):
                diff = {name for name in common
                        if expected[name][lane] != actual[name][lane]}
                if diff:
                    mismatches += 1
                    if first is None:
                        first = {
                            "inputs": {name: values[lane]
                                       for name, values in batch.items()},
                            "outputs": sorted(diff),
                            "expected": {n: expected[n][lane]
                                         for n in sorted(diff)},
                            "actual": {n: actual[n][lane]
                                       for n in sorted(diff)},
                        }
            return EquivalenceReport(vectors=vectors, mismatches=mismatches,
                                     first_mismatch=first)

    reference = CombinationalSimulator(original)
    candidate = CombinationalSimulator(locked)
    common_outputs = set(reference.output_names) & set(candidate.output_names)

    mismatches = 0
    first = None
    for _ in range(vectors):
        vector = reference.random_vector(rng)
        expected = reference.run(vector)
        actual = candidate.run(vector, key=key)
        diff = {name for name in common_outputs
                if expected.get(name) != actual.get(name)}
        if diff:
            mismatches += 1
            if first is None:
                first = {"inputs": dict(vector),
                         "outputs": sorted(diff),
                         "expected": {n: expected[n] for n in sorted(diff)},
                         "actual": {n: actual[n] for n in sorted(diff)}}
    return EquivalenceReport(vectors=vectors, mismatches=mismatches,
                             first_mismatch=first)


def output_corruption(locked: Design, correct_key: Sequence[int],
                      wrong_key: Sequence[int], vectors: int = 50,
                      rng: Optional[random.Random] = None,
                      engine: str = "batch") -> float:
    """Fraction of vectors whose outputs differ between two keys.

    A useful locking scheme corrupts the outputs for wrong keys; 0.0 means the
    wrong key behaves exactly like the correct one (no protection on the
    tested vectors).  ``engine`` selects the bit-parallel fast path (default)
    or the scalar reference of :func:`sweep_differences`; both produce
    identical rates for the same rng.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown simulation engine {engine!r}; "
                         f"expected one of {ENGINES}")
    if vectors < 1:
        return 0.0
    from .vectors import random_input_batch
    batch = random_input_batch(locked, rng or random.Random(), vectors)
    differences = sweep_differences(locked, batch,
                                    keys=[correct_key, wrong_key], n=vectors,
                                    engine=engine)
    return differences.lanes[0] / vectors


def sweep_differences(design: Design, inputs: Mapping[str, Sequence[int]],
                      keys: Optional[Sequence[Sequence[int]]] = None,
                      bindings: Optional[Sequence[Mapping[str, int]]] = None,
                      n: Optional[int] = None,
                      engine: str = "batch") -> SweepDifferences:
    """How far each sweep point's outputs differ from point 0's.

    The entry point of every metric that compares simulations against a
    reference point (output corruption, key-bit sensitivity, input
    avalanche, functional KPA).  The batch engine evaluates the sweep of
    :meth:`BatchSimulator.run_sweep <repro.sim.plan.BatchSimulator.run_sweep>`
    and counts the differences on the bit-sliced words
    (:meth:`~repro.sim.plan.BatchSimulator.sweep_differences`); the scalar
    engine — also the fallback for designs the plan compiler cannot
    express — simulates every vector of every point and compares values.
    Both return identical counts.

    Args:
        design: The design to simulate.
        inputs: Shared input batch ``{input name: [value per lane]}``.
        keys: One key per sweep point (requires a locked design).
        bindings: Per-point input overrides ``{input name: value}``.
        n: Lane count override, required when ``inputs`` is empty.
        engine: ``batch`` (the default; tiled at the plan's lane cap, see
            :func:`~repro.sim.plan.auto_max_lanes`) or ``scalar``.

    Returns:
        A :class:`~repro.sim.plan.SweepDifferences` with one entry per point
        after point 0.

    Raises:
        SimulationError: for every sweep
            :func:`~repro.sim.plan.executor.check_sweep` rejects, with the
            same message on both engines.
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown simulation engine {engine!r}; "
                         f"expected one of {ENGINES}")
    if engine == "batch":
        simulators = _batch_simulators(design)
        if simulators is not None:
            (simulator,) = simulators
            return simulator.sweep_differences(inputs, keys=keys,
                                               bindings=bindings, n=n)

    simulator = CombinationalSimulator(design)
    lanes, points, _ = check_sweep(inputs, keys, bindings, n,
                                   set(simulator.input_names),
                                   design.key_port,
                                   design.top_name)
    from .vectors import batch_to_vectors
    outputs = simulator.output_names
    vectors = batch_to_vectors(inputs, lanes)
    reference: List[Dict[str, int]] = []
    differing: List[int] = []
    flipped: List[int] = []
    for point in range(points):
        key = keys[point] if keys is not None else None
        binding = bindings[point] if bindings is not None else {}
        rows = [simulator.run({**vector, **binding}, key=key)
                for vector in vectors]
        if point == 0:
            reference = rows
            continue
        bits = [sum((expected[name] ^ row[name]).bit_count()
                    for name in outputs)
                for expected, row in zip(reference, rows)]
        differing.append(sum(1 for count in bits if count))
        flipped.append(sum(bits))
    return SweepDifferences(tuple(outputs), differing, flipped)
