"""The bit-slice divider ``executor._divmod`` as one case table.

``_divmod`` divides only over the slices the partial remainder can occupy
and lets the ``above`` mask (lanes whose divisor has a set bit above the
live slices) decide their borrow.  Each case below is held as data and
run through :func:`check_case` against two references:

* :func:`full_width_divmod`, the restoring loop that subtracts over all
  ``nb + 1`` remainder slices on every step (the kernel's previous form),
  compared slice for slice, and
* per-lane Python ``//`` and ``%``, with quotient and remainder 0 where
  the divisor is 0.

A second table runs ``/`` and ``%`` through compiled plans and compares
them with the scalar engine.
"""

import random
from typing import List, NamedTuple, Tuple

import pytest

from repro.rtlir import Design
from repro.sim import (BatchSimulator, CombinationalSimulator,
                       batch_to_vectors, input_signals)
from repro.sim.plan import executor
from repro.sim.plan.executor import pack_values, unpack_values


def full_width_divmod(a: List[int], b: List[int],
                      full: int) -> Tuple[List[int], List[int]]:
    """Restoring division with an ``nb + 1``-slice trial on every step."""
    n, nb = len(a), len(b)
    nonzero = 0
    for s in b:
        nonzero |= s
    if n == 0 or nb == 0 or nonzero == 0:
        return [0] * n, [0] * nb
    remainder = [0] * (nb + 1)
    quotient = [0] * n
    for i in range(n - 1, -1, -1):
        remainder = [a[i]] + remainder[:nb]
        trial = executor._sub(remainder, b, nb + 1, full)
        no_borrow = trial[nb] ^ full
        quotient[i] = no_borrow & nonzero
        keep = no_borrow ^ full
        remainder = [(t & no_borrow) | (r & keep)
                     for t, r in zip(trial, remainder)]
    return quotient, [s & nonzero for s in remainder[:nb]]


def lane_divmod(a: List[int], b: List[int]) -> Tuple[List[int], List[int]]:
    """Per-lane ``a // b`` and ``a % b``; 0 and 0 where ``b`` is 0."""
    return ([x // y if y else 0 for x, y in zip(a, b)],
            [x % y if y else 0 for x, y in zip(a, b)])


#: Lane-value generators ``kind(rng, width, lane) -> value``; values are
#: taken modulo ``2**width``.
VALUES = {
    "random": lambda rng, width, lane: rng.getrandbits(width),
    "ones": lambda rng, width, lane: (1 << width) - 1,
    "zero": lambda rng, width, lane: 0,
    # Every third lane divides by zero.
    "zero-some": lambda rng, width, lane: (
        0 if lane % 3 == 0 else rng.getrandbits(width)),
    # Only the low half of the slices is ever set.
    "narrow": lambda rng, width, lane: rng.getrandbits(width // 2),
    # Narrow values, but one lane in 64 sets the top bit: the high slices
    # are nonzero on a few lanes only.
    "sparse-high": lambda rng, width, lane: (
        (1 << (width - 1)) | rng.getrandbits(width - 1) if lane % 64 == 5
        else rng.getrandbits(width // 4)),
    "small": lambda rng, width, lane: rng.randint(1, 3),
}


class Case(NamedTuple):
    """``lanes`` lanes of an ``n``-bit dividend over an ``nb``-bit divisor."""

    name: str
    lanes: int
    n: int
    dividend: str
    nb: int
    divisor: str


CASES = [
    Case("random", 9, 16, "random", 16, "random"),
    Case("one-lane", 1, 8, "random", 8, "random"),
    Case("seven-lanes", 7, 12, "random", 12, "narrow"),
    Case("one-bit", 9, 1, "random", 1, "random"),
    Case("divisor-wider-than-dividend", 9, 8, "random", 16, "narrow"),
    Case("divisor-wider-and-dense", 9, 8, "random", 16, "random"),
    Case("divisor-narrower-than-dividend", 9, 32, "random", 4, "random"),
    Case("zero-divisor-on-some-lanes", 9, 16, "random", 16, "zero-some"),
    Case("zero-divisor-on-all-lanes", 9, 16, "random", 16, "zero"),
    Case("sparse-high-divisor-slices", 128, 16, "random", 16, "sparse-high"),
    Case("sparse-high-dividend-slices", 128, 16, "sparse-high", 8, "small"),
    Case("all-ones", 9, 16, "ones", 16, "ones"),
    Case("all-ones-by-small", 9, 16, "ones", 16, "small"),
    Case("all-ones-by-narrow", 9, 24, "ones", 12, "narrow"),
    Case("zero-dividend", 9, 16, "zero", 16, "random"),
    Case("empty-dividend", 9, 0, "random", 8, "random"),
    Case("empty-divisor", 9, 8, "random", 0, "random"),
    Case("empty-both", 9, 0, "random", 0, "random"),
    Case("lanes-2048", 2048, 16, "random", 16, "random"),
    Case("lanes-2048-wide", 2048, 32, "random", 32, "zero-some"),
    Case("lanes-67584", 67584, 16, "random", 16, "zero-some"),
    Case("lanes-67584-sparse", 67584, 16, "random", 16, "sparse-high"),
]


def check_case(case: Case, seed: int = 0) -> None:
    """Run one case through ``_divmod`` and both references."""
    rng = random.Random(seed)
    a_values = [VALUES[case.dividend](rng, case.n, lane) % (1 << case.n)
                for lane in range(case.lanes)]
    b_values = [VALUES[case.divisor](rng, case.nb, lane) % (1 << case.nb)
                for lane in range(case.lanes)]
    full = (1 << case.lanes) - 1
    a, b = (pack_values(values, width) if width else []
            for values, width in ((a_values, case.n), (b_values, case.nb)))
    operands = (list(a), list(b))
    quotient, remainder = executor._divmod(a, b, full)
    assert (a, b) == operands, f"{case.name}: operands mutated"
    assert (len(quotient), len(remainder)) == (case.n, case.nb), case.name
    assert (quotient, remainder) == full_width_divmod(a, b, full), \
        f"{case.name}: slices differ from the full-width loop"
    assert (unpack_values(quotient, case.lanes),
            unpack_values(remainder, case.lanes)) == lane_divmod(
                a_values, b_values), f"{case.name}: lane values differ"


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_divmod_case(case):
    check_case(case)


def test_cases_cover_the_lane_counts_and_value_kinds():
    assert {1, 7, 9, 2048, 67584} <= {case.lanes for case in CASES}
    assert {case.divisor for case in CASES} | {
        case.dividend for case in CASES} == set(VALUES)


#: Seeded random shapes: ``(seed, cases drawn)``.
RANDOM_SHAPES = [(seed, 200) for seed in range(5)]


@pytest.mark.parametrize("seed,count", RANDOM_SHAPES)
def test_random_shapes(seed, count):
    """Random widths, lane counts and value kinds, one case per draw."""
    rng = random.Random(seed)
    kinds = sorted(VALUES)
    for index in range(count):
        n, nb = rng.randint(0, 14), rng.randint(0, 14)
        case = Case(f"random-{seed}-{index}", rng.choice([1, 3, 7, 8, 9, 70]),
                    n, rng.choice(kinds) if n else "zero",
                    nb, rng.choice(kinds) if nb else "zero")
        check_case(case, seed=index)


#: Unlocked designs dividing at several operand and context widths:
#: ``{name: Verilog}``.
PLAN_DESIGNS = {
    "same-width": """
    module same_width (input [15:0] a, input [15:0] b,
                       output [15:0] q, output [15:0] r);
      assign q = a / b;
      assign r = a % b;
    endmodule
    """,
    "divisor-wider": """
    module divisor_wider (input [7:0] a, input [15:0] b,
                          output [7:0] q, output [7:0] r);
      assign q = a / b;
      assign r = a % b;
    endmodule
    """,
    "divisor-narrower": """
    module divisor_narrower (input [31:0] a, input [3:0] b,
                             output [31:0] q, output [3:0] r);
      assign q = a / b;
      assign r = a % b;
    endmodule
    """,
    "wide-context": """
    module wide_context (input [7:0] a, input [7:0] b,
                         output [16:0] q, output [16:0] r);
      assign q = (a * b + 3) / (b - 1);
      assign r = (a * b + 3) % (b >> 2);
    endmodule
    """,
}

#: ``(design, lanes)``: lane counts below, at and above a byte.
PLAN_CASES = [(name, lanes) for name in PLAN_DESIGNS for lanes in (1, 9, 200)]


@pytest.mark.parametrize("name,lanes", PLAN_CASES,
                         ids=[f"{name}-{lanes}" for name, lanes in PLAN_CASES])
def test_compiled_division_matches_the_scalar_engine(name, lanes):
    design = Design.from_verilog(PLAN_DESIGNS[name])
    rng = random.Random(lanes)
    widths = dict(input_signals(design))
    inputs = {port: [rng.getrandbits(width) for _ in range(lanes)]
              for port, width in widths.items()}
    # Zero divisors on every fourth lane, all-ones operands on lane 1.
    for lane in range(0, lanes, 4):
        inputs["b"][lane] = 0
    if lanes > 1:
        for port, width in widths.items():
            inputs[port][1] = (1 << width) - 1
    scalar = CombinationalSimulator(design)
    expected = {output: [] for output in scalar.output_names}
    for vector in batch_to_vectors(inputs, lanes):
        for output, value in scalar.run(vector).items():
            expected[output].append(value)
    assert BatchSimulator(design).run_batch(inputs, n=lanes) == expected
