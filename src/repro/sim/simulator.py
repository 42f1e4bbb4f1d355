"""Combinational simulation of (locked) RTL designs.

:class:`CombinationalSimulator` evaluates a design for one concrete input
vector at a time by walking its expression ASTs.  It shares no code with the
compiled plans of the bit-parallel :class:`~repro.sim.plan.BatchSimulator`,
which makes it the independent reference oracle of the cross-check suites
and the engine of designs the plan compiler cannot express.

:func:`sweep_differences` takes no engine: it runs a design's cached batch
engine, or the scalar one when the design does not compile.

Sequential logic (always blocks) is outside this simulator's scope; designs
containing always blocks can still be simulated for their combinational
outputs, the registered outputs are simply not reported.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Union

from ..rtlir.design import Design
from . import plan_cache
from .evaluator import ExpressionEvaluator, SimulationError, mask
from .plan import BatchCompileError, BatchSimulator
from .plan.executor import (SweepDifferences, check_key, check_lanes,
                            check_sweep)
from .plan.steps import _declared_widths, _ordered_assignments
from .vectors import batch_to_vectors


class CombinationalSimulator:
    """Evaluate the combinational outputs of a design, one vector at a time.

    Args:
        design: The design to simulate (locked or not).

    Raises:
        SimulationError: if the combinational assignments contain a
            dependency cycle, or a declared range is not constant.
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
        self._assignments, _ = _ordered_assignments(module)

    # ------------------------------------------------------------- accessors

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
            SimulationError: for unknown input names, a key that is not as
                wide as the key port or has a bit that is not 0/1
                (:func:`~repro.sim.plan.executor.check_key`), or evaluation
                failures.
        """
        env: Dict[str, int] = {}
        for name, value in inputs.items():
            if name not in self._inputs:
                raise SimulationError(f"{name!r} is not an input of "
                                      f"{self.design.top_name!r}")
            env[name] = mask(int(value), self.width_of(name))
        for name in self._inputs:
            env.setdefault(name, 0)

        key_port = self.design.key_port
        if key_port is not None and key is not None:
            check_key(key, self.width_of(key_port))
            env[key_port] = sum(bit << position
                                for position, bit in enumerate(key))

        for name, expr in self._assignments:
            env[name] = mask(self._evaluator.evaluate(expr, env),
                             self.width_of(name))

        return {name: env[name] for name in self.output_names}

    def run_batch(self, inputs: Mapping[str, Sequence[int]],
                  key: Optional[Sequence[int]] = None,
                  n: Optional[int] = None) -> Dict[str, List[int]]:
        """:meth:`BatchSimulator.run_batch
        <repro.sim.plan.BatchSimulator.run_batch>` (same arguments, same
        result), one :meth:`run` per lane."""
        rows = [self.run(vector, key=key)
                for vector in batch_to_vectors(inputs, check_lanes(inputs, n))]
        return {name: [row[name] for row in rows]
                for name in self.output_names}

    def sweep_differences(self, inputs: Mapping[str, Sequence[int]],
                          keys: Optional[Sequence[Sequence[int]]] = None,
                          bindings: Optional[Sequence[Mapping[str, int]]]
                          = None,
                          n: Optional[int] = None) -> SweepDifferences:
        """How far each sweep point's outputs differ from point 0's.

        The scalar form of :meth:`BatchSimulator.sweep_differences
        <repro.sim.plan.BatchSimulator.sweep_differences>`, with the same
        arguments, checked by the same
        :func:`~repro.sim.plan.executor.check_sweep`: every vector of every
        point is simulated and the values are compared, so the counts are
        a reference that shares no code with the bit-sliced ones.

        Raises:
            SimulationError: for every sweep ``check_sweep`` rejects.
        """
        key_port = self.design.key_port
        lanes, points, _, _ = check_sweep(
            inputs, keys, bindings, n, set(self._inputs), key_port,
            self.width_of(key_port) if key_port else 0,
            self.design.top_name)
        outputs = self.output_names
        vectors = batch_to_vectors(inputs, lanes)
        reference: List[Dict[str, int]] = []
        differing: List[int] = []
        flipped: List[int] = []
        for point in range(points):
            key = keys[point] if keys is not None else None
            binding = bindings[point] if bindings is not None else {}
            rows = [self.run({**vector, **binding}, key=key)
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


# ---------------------------------------------------------------------------
# Equivalence / difference checks
# ---------------------------------------------------------------------------


def _simulator(design: Design
               ) -> Union[BatchSimulator, CombinationalSimulator]:
    """The design's cached :class:`BatchSimulator` (one compile per design,
    see :mod:`~repro.sim.plan_cache`), or a :class:`CombinationalSimulator`
    for designs the plan compiler cannot express."""
    try:
        return plan_cache.cached_simulator(design)
    except BatchCompileError:
        return CombinationalSimulator(design)


def sweep_differences(design: Design, inputs: Mapping[str, Sequence[int]],
                      keys: Optional[Sequence[Sequence[int]]] = None,
                      bindings: Optional[Sequence[Mapping[str, int]]] = None,
                      n: Optional[int] = None) -> SweepDifferences:
    """How far each sweep point's outputs differ from point 0's.

    The entry point of every metric that compares simulations against a
    reference point (output corruption, key-bit sensitivity, input
    avalanche, functional KPA): :meth:`BatchSimulator.sweep_differences
    <repro.sim.plan.BatchSimulator.sweep_differences>`, or
    :meth:`CombinationalSimulator.sweep_differences` with identical counts
    for designs the plan compiler cannot express.

    Args:
        design: The design to simulate.
        inputs: Shared input batch ``{input name: [value per lane]}``.
        keys: One key per sweep point (requires a locked design).
        bindings: Per-point input overrides ``{input name: value}``.
        n: Lane count override, required when ``inputs`` is empty.

    Returns:
        A :class:`~repro.sim.plan.SweepDifferences` with one entry per point
        after point 0.

    Raises:
        SimulationError: for every sweep
            :func:`~repro.sim.plan.executor.check_sweep` rejects, with the
            same message on both engines.
    """
    return _simulator(design).sweep_differences(inputs, keys=keys,
                                                bindings=bindings, n=n)
