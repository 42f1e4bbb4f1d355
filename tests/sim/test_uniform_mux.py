"""A ternary whose condition is uniform over the lanes runs one branch only.

Two promises of the plan compiler, checked as one case table:

* **Width.**  Every closure :meth:`ExpressionCompiler.compile` returns
  yields exactly the static width it was compiled with.  The uniform-
  condition shortcut leans on it: the branch it returns is padded to the
  ternary's width instead of being passed through ``executor._mux``.
  :func:`checked_widths` wraps ``compile`` so every closure it returns
  records a wrong-width result; the check runs on every benchmark locked
  by every packaged locker, on the random profiles of
  ``test_equivalence_property.py`` and on every hand-written case below.
* **Skipped work.**  On hand-written locked designs the calls of
  ``executor._mul`` and ``executor._divmod`` are counted on each
  simulation path: one key broadcast on every lane (``batch``), single-bit
  key flips (``cones``), mixed-key tiles (``tiles`` and ``differences``).
  Each count is the number of live branches the key leaves, and the
  outputs equal the scalar engine's.

The branches of ``hoisted`` read only inputs, so sweep value-numbering
hoists them into their own ``$vnN`` steps: they run whatever the key, and
the mux only selects.  Every other design feeds its mux branches from a
key-dependent wire, so the branches stay inside the mux.
"""

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import LOCKERS, locker_names, make_locker
from repro.bench import benchmark_names, load_benchmark
from repro.bench.generators import profile_design
from repro.rtlir import Design
from repro.rtlir.design import KeyBit
from repro.sim import (BatchSimulator, CombinationalSimulator,
                       batch_to_vectors, random_input_batch, random_key)
from repro.sim.plan import executor
from repro.sim.plan.lowering import ExpressionCompiler

from ..api.test_registry_contracts import packaged
from .test_equivalence_property import combinational_profiles

LOCKER_NAMES = packaged(LOCKERS, locker_names())

#: Hand-written locked designs: ``{name: Verilog}``; the key port is
#: ``lock_key``.
DESIGNS = {
    "hoisted": """
    module hoisted (input [7:0] a, input [7:0] b, input [0:0] lock_key,
                    output [15:0] y);
      assign y = lock_key[0] ? a * b : a / b;
    endmodule
    """,
    "mux": """
    module mux (input [7:0] a, input [7:0] b, input [1:0] lock_key,
                output [15:0] y);
      wire [7:0] t = lock_key[1] ? a + b : a ^ b;
      assign y = lock_key[0] ? t * b : t / b;
    endmodule
    """,
    "nested": """
    module nested (input [7:0] a, input [7:0] b, input [2:0] lock_key,
                   output [15:0] y);
      wire [7:0] t = lock_key[2] ? a + b : a ^ b;
      assign y = lock_key[1] ? t % b : (lock_key[0] ? t * b : t / b);
    endmodule
    """,
    "data": """
    module data (input [7:0] a, input [7:0] b, input [0:0] lock_key,
                 output [15:0] y);
      wire [7:0] t = lock_key[0] ? a + b : a ^ b;
      assign y = (a < b) ? t * b : t / b;
    endmodule
    """,
}

#: Five lanes (not a multiple of 8, so sweep blocks carry pad lanes);
#: ``a < b`` holds on the first lane only, lane 2 divides by zero and some
#: products need all 16 bits.
INPUTS = {"a": [3, 200, 17, 90, 255], "b": [7, 5, 0, 90, 254]}
LANES = 5

#: ``(design, path, keys, _mul calls, _divmod calls)``.  ``batch`` runs
#: ``run_batch`` under ``keys[0]``; ``cones`` is a ``sweep_differences`` of
#: single-bit flips of ``keys[0]`` (a base pass, then one cone per flip);
#: ``tiles`` is a ``run_sweep`` and ``differences`` a ``sweep_differences``
#: that flips two bits at once, both on one mixed-key tile.
CASES = [
    ("hoisted", "batch", [[0]], 1, 1),
    ("hoisted", "batch", [[1]], 1, 1),
    ("hoisted", "cones", [[0], [1]], 1, 1),
    ("hoisted", "tiles", [[0], [1]], 1, 1),
    ("mux", "batch", [[0, 0]], 0, 1),
    ("mux", "batch", [[1, 1]], 1, 0),
    ("mux", "batch", [[1, 0]], 1, 0),
    ("mux", "cones", [[0, 0], [1, 0], [0, 1]], 1, 2),
    ("mux", "cones", [[1, 1], [0, 1], [1, 0], [1, 1]], 2, 1),
    ("mux", "tiles", [[0, 0], [1, 1]], 1, 1),
    ("mux", "tiles", [[0, 0], [0, 1]], 0, 1),
    ("mux", "tiles", [[1, 0], [1, 1], [1, 0]], 1, 0),
    ("mux", "differences", [[0, 0], [1, 1]], 1, 1),
    ("nested", "batch", [[0, 0, 0]], 0, 1),
    ("nested", "batch", [[1, 1, 1]], 0, 1),
    ("nested", "batch", [[1, 0, 0]], 1, 0),
    ("nested", "cones", [[1, 0, 0], [0, 0, 0], [1, 1, 0], [1, 0, 1]], 2, 2),
    ("nested", "tiles", [[1, 0, 0], [1, 0, 1]], 1, 0),
    ("nested", "tiles", [[0, 0, 0], [1, 1, 1]], 1, 2),
    ("nested", "tiles", [[0, 1, 0], [0, 1, 1]], 0, 1),
    ("data", "batch", [[0]], 1, 1),
    ("data", "batch", [[1]], 1, 1),
    ("data", "cones", [[0], [1]], 2, 2),
    ("data", "tiles", [[0], [1]], 1, 1),
]


@contextlib.contextmanager
def checked_widths():
    """Wrap :meth:`ExpressionCompiler.compile` so every closure compiled
    inside the block records ``(expression, width, slices returned)`` in
    the yielded list whenever it returns other than its static width."""
    violations = []
    original = ExpressionCompiler.compile

    def compile(self, expr):
        fn, width = original(self, expr)

        def checked(env, full):
            value = fn(env, full)
            if len(value) != width:
                violations.append((type(expr).__name__, width, len(value)))
            return value

        return checked, width

    with mock.patch.object(ExpressionCompiler, "compile", compile):
        yield violations


def hand_written(name: str, width: int) -> Design:
    design = Design.from_verilog(DESIGNS[name])
    design.key_port = "lock_key"
    design.key_bits = [KeyBit(index=index, kind="operation", correct_value=0)
                       for index in range(width)]
    return design


def run_case(design: Design, simulator: BatchSimulator, path: str, keys):
    """Run one path; return ``(plan result, scalar engine result)``."""
    scalar = CombinationalSimulator(design)
    if path in ("cones", "differences"):
        return (simulator.sweep_differences(INPUTS, keys=keys, n=LANES),
                scalar.sweep_differences(INPUTS, keys=keys, n=LANES))
    vectors = batch_to_vectors(INPUTS, LANES)
    per_key = [{name: [scalar.run(vector, key=key)[name]
                       for vector in vectors]
                for name in scalar.output_names} for key in keys]
    if path == "batch":
        return simulator.run_batch(INPUTS, key=keys[0], n=LANES), per_key[0]
    return simulator.run_sweep(INPUTS, keys=keys, n=LANES), per_key


def check_case(name: str, path: str, keys, muls: int, divmods: int) -> None:
    design = hand_written(name, len(keys[0]))
    with checked_widths() as violations:
        simulator = BatchSimulator(design)
        with mock.patch.object(executor, "_mul", wraps=executor._mul) as mul, \
                mock.patch.object(executor, "_divmod",
                                  wraps=executor._divmod) as divmod:
            got, expected = run_case(design, simulator, path, keys)
    assert got == expected, f"{name}/{path}: plan and scalar engine disagree"
    assert not violations, f"{name}/{path}: wrong widths {violations}"
    assert (mul.call_count, divmod.call_count) == (muls, divmods), \
        f"{name}/{path} under {keys}: ran (_mul, _divmod) " \
        f"{(mul.call_count, divmod.call_count)}, predicted {(muls, divmods)}"


@pytest.mark.parametrize("name,path,keys,muls,divmods", CASES,
                         ids=[f"{name}-{path}-{index}" for index,
                              (name, path, *_) in enumerate(CASES)])
def test_uniform_key_runs_only_the_selected_branch(name, path, keys, muls,
                                                   divmods):
    check_case(name, path, keys, muls, divmods)


def test_cases_cover_every_design_and_path():
    assert {name for name, *_ in CASES} == set(DESIGNS)
    assert {path for _, path, *_ in CASES} == {"batch", "cones", "tiles",
                                              "differences"}


def check_plan_widths(design: Design, seed: int) -> None:
    """Every compiled closure of ``design``'s plan returns its width under
    the correct key, the inverted key and a mixed-key sweep."""
    rng = random.Random(seed)
    batch = random_input_batch(design, rng, LANES)
    correct = design.correct_key
    inverted = [1 - bit for bit in correct]
    keys = [correct, inverted] + [random_key(design.key_width, rng)
                                  for _ in range(2)]
    with checked_widths() as violations:
        simulator = BatchSimulator(design)
        for key in (correct, inverted):
            simulator.run_batch(batch, key=key, n=LANES)
        simulator.sweep_differences(batch, keys=keys, n=LANES)
    assert not violations, f"{design.name}: wrong widths {violations}"


#: ``(benchmark, locker)``: every benchmark locked by every packaged locker.
WIDTH_CASES = [(name, locker) for name in benchmark_names()
               for locker in LOCKER_NAMES]


@pytest.mark.parametrize("design_name,locker", WIDTH_CASES,
                         ids=[f"{name}-{locker}"
                              for name, locker in WIDTH_CASES])
def test_locked_benchmark_closures_return_their_width(design_name, locker):
    design = load_benchmark(design_name, scale=0.1, seed=0)
    budget = max(1, design.num_operations() // 2)
    locked = make_locker(locker, random.Random(0)).lock(design, budget)
    check_plan_widths(locked.design, seed=1)


@given(profile=combinational_profiles(), seed=st.integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
def test_random_profile_closures_return_their_width(profile, seed):
    design = profile_design(profile, seed=seed)
    budget = max(1, design.num_operations() // 2)
    for locker in LOCKER_NAMES:
        locked = make_locker(locker, random.Random(seed)).lock(design, budget)
        check_plan_widths(locked.design, seed)
