"""The plan executor: bit-slice ALU kernels and the bit-parallel simulator.

This module holds the *runtime* of the plan pipeline — everything that
happens after compilation:

* the bit-slice ALU primitives (ripple-carry add, shift-and-add multiply,
  restoring division, barrel shifters, mask-select muxes) the compiled
  closures call into,
* the lane packers (:func:`pack_values` / :func:`unpack_values`), and
* :class:`BatchSimulator` — N input vectors per bit-parallel pass
  (:meth:`~BatchSimulator.run_batch`) and S×V (key, input) sweep lanes per
  pass, counted as how far each sweep point's outputs differ from point 0's
  (:meth:`~BatchSimulator.sweep_differences`, by XOR and popcount on the
  slice words without unpacking a lane — what the metrics and functional
  KPA call) or unpacked into per-point values
  (:meth:`~BatchSimulator.run_sweep`, the value form the tests and
  benchmarks check the counts and the per-key loop against).

Both sweep forms take the same arguments, checked once by
:func:`check_sweep` (which the scalar engine calls too), and hoist
point-invariant work: steps whose transitive inputs are point-invariant
(they read neither a swept key port nor a per-point bound signal) evaluate
once on the V-lane base batch and their results are tiled across the S
point blocks, instead of being re-evaluated on all S×V lanes.  Identical
keys across all sweep points count as point-invariant — the
avalanche-study shape, where only one probed input varies.

Every pass is capped in lanes: by an explicit ``max_lanes`` argument
where the caller passes one, else by the plan's own cap
(:func:`auto_max_lanes`, the lane-bits budget over the plan's per-lane slice
bits).  ``run_batch`` splits its lanes into fixed-size chunks, the sweeps
split the S sweep points into point *tiles* and stream each tile through
pack → execute → unpack (or count) while the invariant base-batch work is
still evaluated only once — so million-lane sweeps run in bounded memory
with results bit-identical to the unchunked pass (chunking only ever
partitions independent lanes).  Within a pass, every value is dropped after
its last reader (:func:`release_schedule`), so a pass holds only its live
values.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import (Callable, Collection, Dict, FrozenSet, List, Mapping,
                    NamedTuple, Optional, Sequence, Set, Tuple)

from ...rtlir.design import Design
from ..evaluator import SimulationError, mask
from .steps import EvalPlan, Slices, Step

# ---------------------------------------------------------------------------
# Bit-slice ALU primitives
# ---------------------------------------------------------------------------
# Every primitive treats missing high slices as zero and never mutates its
# operands; all produced slices are masked to the batch's lane mask ``full``.


def _fit(value: Slices, width: int) -> Slices:
    """Truncate or zero-extend ``value`` to exactly ``width`` slices."""
    if len(value) == width:
        return value
    if len(value) > width:
        return value[:width]
    return value + [0] * (width - len(value))


def _add(a: Slices, b: Slices, n: int, carry: int = 0) -> Slices:
    """Ripple-carry ``(a + b + carry) mod 2**n`` over all lanes."""
    out: Slices = []
    c = carry
    la, lb = len(a), len(b)
    for i in range(n):
        ai = a[i] if i < la else 0
        bi = b[i] if i < lb else 0
        axb = ai ^ bi
        out.append(axb ^ c)
        c = (ai & bi) | (c & axb)
    return out


def _sub(a: Slices, b: Slices, n: int, full: int) -> Slices:
    """``(a - b) mod 2**n`` via ``a + ~b + 1`` over all lanes."""
    out: Slices = []
    c = full
    la, lb = len(a), len(b)
    for i in range(n):
        ai = a[i] if i < la else 0
        bi = (b[i] ^ full) if i < lb else full
        axb = ai ^ bi
        out.append(axb ^ c)
        c = (ai & bi) | (c & axb)
    return out


def _mul(a: Slices, b: Slices, n: int) -> Slices:
    """Shift-and-add ``(a * b) mod 2**n``; all-zero partials are skipped."""
    out = [0] * n
    la = len(a)
    for j, bj in enumerate(b):
        if j >= n:
            break
        if bj == 0:
            continue
        c = 0
        for i in range(j, n):
            ai = a[i - j] if i - j < la else 0
            p = ai & bj
            axb = out[i] ^ p
            s = axb ^ c
            c = (out[i] & p) | (c & axb)
            out[i] = s
    return out


def _divmod(a: Slices, b: Slices, full: int) -> Tuple[Slices, Slices]:
    """Restoring division; lanes dividing by zero yield quotient/remainder 0."""
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
        trial = _sub(remainder, b, nb + 1, full)
        no_borrow = trial[nb] ^ full
        quotient[i] = no_borrow & nonzero
        keep = no_borrow ^ full
        remainder = [(t & no_borrow) | (r & keep)
                     for t, r in zip(trial, remainder)]
    return quotient, [s & nonzero for s in remainder[:nb]]


def _less_than(a: Slices, b: Slices, full: int) -> int:
    """Per-lane ``a < b`` mask (sign of the widened subtraction)."""
    n = max(len(a), len(b)) + 1
    return _sub(a, b, n, full)[n - 1]


def _equal(a: Slices, b: Slices, full: int) -> int:
    """Per-lane ``a == b`` mask."""
    diff = 0
    la, lb = len(a), len(b)
    for i in range(max(la, lb)):
        ai = a[i] if i < la else 0
        bi = b[i] if i < lb else 0
        diff |= ai ^ bi
    return diff ^ full


def _nonzero(a: Slices) -> int:
    """Per-lane ``a != 0`` mask."""
    acc = 0
    for s in a:
        acc |= s
    return acc


def _mux(cond: int, true_value: Slices, false_value: Slices,
         full: int) -> Slices:
    """Lane-select ``cond ? true_value : false_value``."""
    n = max(len(true_value), len(false_value))
    inv = cond ^ full
    lt, lf = len(true_value), len(false_value)
    return [((true_value[i] if i < lt else 0) & cond)
            | ((false_value[i] if i < lf else 0) & inv)
            for i in range(n)]


def _shift_left_var(a: Slices, amount: Slices, n: int, full: int) -> Slices:
    """Barrel shifter: ``(a << amount) mod 2**n`` with per-lane amounts."""
    cur = _fit(a, n)
    kill = 0
    for k, s in enumerate(amount):
        if (1 << k) >= n:
            kill |= s
            continue
        if s == 0:
            continue
        sh = 1 << k
        inv = s ^ full
        cur = [((cur[i - sh] if i >= sh else 0) & s) | (cur[i] & inv)
               for i in range(n)]
    if kill:
        keep = kill ^ full
        cur = [c & keep for c in cur]
    return cur


def _shift_right_var(a: Slices, amount: Slices, full: int) -> Slices:
    """Barrel shifter: ``a >> amount`` with per-lane amounts."""
    n = len(a)
    if n == 0:
        return []
    cur = list(a)
    kill = 0
    for k, s in enumerate(amount):
        if (1 << k) >= n:
            kill |= s
            continue
        if s == 0:
            continue
        sh = 1 << k
        inv = s ^ full
        cur = [((cur[i + sh] if i + sh < n else 0) & s) | (cur[i] & inv)
               for i in range(n)]
    if kill:
        keep = kill ^ full
        cur = [c & keep for c in cur]
    return cur


# ---------------------------------------------------------------------------
# Packing helpers
# ---------------------------------------------------------------------------


#: Lane count from which :func:`pack_values` switches to the vectorised
#: byte-level path (below it, the set-bit loop wins on constant factors).
_FAST_PACK_LANES = 128


def pack_values(values: Sequence[int], width: int) -> Slices:
    """Bit-slice a list of lane values into ``width`` slice words.

    Large batches of narrow (≤ 64-bit) signals take a vectorised path —
    one bit-column extraction per slice at C speed; the set-bit loop remains
    for small batches and arbitrary widths.  Both paths mask values to
    ``width`` bits and are bit-identical.
    """
    if len(values) >= _FAST_PACK_LANES and width <= 64:
        return _pack_values_fast(values, width)
    slices = [0] * width
    for lane, value in enumerate(values):
        v = mask(int(value), width)
        while v:
            low = v & -v
            slices[low.bit_length() - 1] |= 1 << lane
            v ^= low
    return slices


def _pack_values_fast(values: Sequence[int], width: int) -> Slices:
    """Vectorised :func:`pack_values` for wide lanes of ≤ 64-bit signals."""
    import numpy as np

    try:
        arr = np.array(values, dtype=np.uint64)
    except (TypeError, OverflowError):
        # Negative or over-wide values: reproduce mask() element-wise.
        arr = np.array([mask(int(value), width) for value in values],
                       dtype=np.uint64)
    if width < 64:
        arr = arr & np.uint64((1 << width) - 1)
    return _bit_columns_to_words(_bit_matrix(arr, width))


def _bit_matrix(arr: "object", width: int) -> "object":
    """``(lanes, width)`` bit matrix of a uint64 value array (LSB first)."""
    import numpy as np

    bytes_view = np.ascontiguousarray(arr.astype("<u8")).view(np.uint8)
    bits = np.unpackbits(bytes_view.reshape(-1, 8), axis=1, bitorder="little")
    return bits[:, :width]


def _bit_columns_to_words(bits: "object") -> Slices:
    """Pack each column of a ``(lanes, width)`` bit matrix into one slice int."""
    import numpy as np

    packed = np.packbits(np.ascontiguousarray(bits.T), axis=1,
                         bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _spread_point_bits(rows: "object", base: int) -> Slices:
    """One slice word per row of a ``(width, points)`` 0/1 matrix.

    ``base`` is a multiple of 8, so a point's bit becomes ``base // 8``
    bytes of ``0xFF`` or ``0x00``: each row is repeated at byte level and
    read with one ``int.from_bytes``.  Only one row's bytes — one packed
    slice word — are held at a time.
    """
    import numpy as np

    block_bytes = base // 8
    return [int.from_bytes(np.repeat(row * np.uint8(0xFF),
                                     block_bytes).tobytes(), "little")
            for row in rows]


def _key_bit_matrix(keys: Sequence[Sequence[int]]) -> "object":
    """``(points, key length)`` uint8 bits of equal-length integer keys.

    ``None`` for ragged or non-integer keys, which the set-bit loop
    validates one bit at a time.

    Raises:
        SimulationError: naming the first point and position whose bit is
            not 0/1.
    """
    import numpy as np

    try:
        arr = np.array(keys)
    except ValueError:
        return None
    if arr.ndim != 2 or arr.dtype.kind not in "biu":
        return None
    bad = np.argwhere((arr < 0) | (arr > 1))
    if len(bad):
        point, position = (int(bad[0][0]), int(bad[0][1]))
        raise SimulationError(
            f"key bit {position} of sweep point {point} is not 0/1")
    return arr.astype(np.uint8)


def _pack_swept_keys(keys: Sequence[Sequence[int]], width: int,
                     base: int) -> Slices:
    """Pack one key per sweep point into S×V-lane slices (point blocks).

    Whole-byte point blocks take :func:`_spread_point_bits`; other base
    widths (and ragged or non-integer keys) the set-bit loop.
    """
    if base % 8 == 0:
        bits = _key_bit_matrix(keys)
        if bits is not None:
            return _fit(_spread_point_bits(bits[:, :width].T, base), width)
    block = (1 << base) - 1
    slices = [0] * width
    for index, point_key in enumerate(keys):
        shift = index * base
        for position, bit in enumerate(point_key):
            if bit not in (0, 1):
                raise SimulationError(
                    f"key bit {position} of sweep point {index} "
                    "is not 0/1")
            if bit and position < width:
                slices[position] |= block << shift
    return slices


def _pack_point_values(values: Sequence[int], width: int,
                       base: int) -> Slices:
    """Broadcast one value per sweep point over its V-lane block.

    Whole-byte point blocks take :func:`_spread_point_bits`; other base
    widths the set-bit loop.
    """
    if base % 8 == 0:
        import numpy as np

        nbytes = (width + 7) // 8
        data = b"".join(mask(int(value), width).to_bytes(nbytes, "little")
                        for value in values)
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)
                             .reshape(len(values), nbytes),
                             axis=1, bitorder="little", count=width)
        return _spread_point_bits(bits.T, base)
    block = (1 << base) - 1
    slices = [0] * width
    for index, point_value in enumerate(values):
        value = mask(int(point_value), width)
        shift = index * base
        while value:
            low = value & -value
            slices[low.bit_length() - 1] |= block << shift
            value ^= low
    return slices


#: Lane count from which :func:`unpack_values` switches to the vectorised
#: byte-level path (below it, the set-bit loop wins on constant factors).
_FAST_UNPACK_LANES = 128


def unpack_values(slices: Sequence[int], n: int) -> List[int]:
    """Inverse of :func:`pack_values`: recover ``n`` lane values.

    Large batches take a vectorised path: every slice word is exploded to a
    byte/bit array at C speed and the per-lane values are rebuilt in 32-slice
    chunks, which is what keeps result extraction from dominating S×V-lane
    sweeps.  Small batches keep the set-bit loop.  Both paths return plain
    Python ints and are bit-identical.
    """
    if n >= _FAST_UNPACK_LANES and slices:
        return _unpack_values_fast(slices, n)
    values = [0] * n
    for i, word in enumerate(slices):
        w = word
        while w:
            low = w & -w
            values[low.bit_length() - 1] |= 1 << i
            w ^= low
    return values


def _unpack_values_fast(slices: Sequence[int], n: int) -> List[int]:
    """Vectorised :func:`unpack_values` for wide lane counts."""
    import numpy as np

    width = len(slices)
    nbytes = (n + 7) // 8
    buffer = b"".join(word.to_bytes(nbytes, "little") for word in slices)
    bits = np.unpackbits(np.frombuffer(buffer, dtype=np.uint8)
                         .reshape(width, nbytes),
                         axis=1, bitorder="little", count=n)
    # Re-pack each lane's bit row into value bytes, then view groups of
    # eight bytes as 64-bit words and recombine the (rare) high words with
    # Python ints.
    value_bytes = (width + 7) // 8
    word_count = (value_bytes + 7) // 8
    if width % 8:
        lane_bits = np.zeros((n, value_bytes * 8), dtype=np.uint8)
        lane_bits[:, :width] = bits.T
    else:
        lane_bits = np.ascontiguousarray(bits.T)
    packed = np.packbits(lane_bits, axis=1, bitorder="little")
    if value_bytes % 8:
        padded = np.zeros((n, word_count * 8), dtype=np.uint8)
        padded[:, :value_bytes] = packed
        packed = padded
    words = packed.view("<u8")
    values = words[:, 0].tolist()
    for column in range(1, word_count):
        shift = 64 * column
        high = words[:, column].tolist()
        values = [low | (word << shift)
                  for low, word in zip(values, high)]
    return values


def _comb_replicate(word: int, base: int, points: int) -> int:
    """Copy a ``base``-lane slice word into each of ``points`` point blocks.

    One multiplication by the block-comb constant ``0b...0001...0001``.
    """
    return word * _block_comb(base, points)


@lru_cache(maxsize=64)
def _block_comb(base: int, points: int) -> int:
    """``points`` copies of lane 0's bit, one per ``base``-lane block."""
    return ((1 << base * points) - 1) // ((1 << base) - 1)


def _replicate(word: int, base: int, points: int) -> int:
    """:func:`_comb_replicate` by byte repeat when a block is whole bytes.

    The big-int multiply costs about base × tile digit products, so from a
    few hundred base lanes on the byte repeat wins by 4x (512 lanes) to 18x
    (2048 lanes).  Below about 128 lanes the multiply is faster, but either
    takes well under a microsecond there.
    """
    if base % 8 == 0:
        return int.from_bytes(word.to_bytes(base // 8, "little") * points,
                              "little")
    return _comb_replicate(word, base, points)


class _BlockPopcount:
    """Set bits per ``base``-lane point block, summed over many slice words.

    Every word is read as its little-endian bytes.  When a block is whole
    bytes, the byte popcounts accumulate and are summed per block at the
    end; otherwise the lanes accumulate bit by bit.
    """

    def __init__(self, base: int, points: int) -> None:
        import numpy as np

        self.points = points
        self.lanes = base * points
        self.nbytes = (self.lanes + 7) // 8
        self.whole_bytes = base % 8 == 0
        self.counts = np.zeros(self.nbytes if self.whole_bytes
                               else self.lanes, dtype=np.int64)

    def add(self, word: int) -> None:
        import numpy as np

        data = np.frombuffer(word.to_bytes(self.nbytes, "little"),
                             dtype=np.uint8)
        if self.whole_bytes:
            self.counts += np.bitwise_count(data)
        else:
            self.counts += np.unpackbits(data, bitorder="little",
                                         count=self.lanes)

    def per_point(self) -> List[int]:
        return self.counts.reshape(self.points, -1).sum(axis=1).tolist()


def _count_differences(env: Mapping[str, Slices],
                       reference: Mapping[str, Slices], base: int,
                       points: int) -> Tuple[List[int], List[int]]:
    """Per point of a tile: differing lanes and flipped bits vs. ``reference``.

    ``reference`` holds one ``base``-lane slice word per output bit; it is
    replicated into every point block and XORed against the tile's words.
    """
    lanes = _BlockPopcount(base, points)
    bits = _BlockPopcount(base, points)
    any_difference = 0
    for name, reference_slices in reference.items():
        for expected, word in zip(reference_slices, env[name]):
            difference = word ^ _replicate(expected, base, points)
            if difference:
                any_difference |= difference
                bits.add(difference)
    lanes.add(any_difference)
    return lanes.per_point(), bits.per_point()


def differing_lanes(expected: Mapping[str, Sequence[int]],
                    actual: Mapping[str, Sequence[int]],
                    names: Optional[Sequence[str]] = None,
                    n: Optional[int] = None) -> List[int]:
    """Lanes on which two ``run_batch`` results differ in any output.

    Args:
        expected: First result, ``{output name: [value per lane]}``.
        actual: Second result of the same shape.
        names: Outputs to compare (default: every key of ``expected``).
        n: Lane count (default: inferred from the first compared output).

    Returns:
        Sorted lane indices with at least one differing output value.
    """
    compared = list(names) if names is not None else list(expected)
    if n is None:
        n = len(expected[compared[0]]) if compared else 0
    return [lane for lane in range(n)
            if any(expected[name][lane] != actual[name][lane]
                   for name in compared)]


def _pack_key_broadcast(key: Sequence[int], full: int) -> Slices:
    slices: Slices = []
    for position, bit in enumerate(key):
        if bit not in (0, 1):
            raise SimulationError(f"key bit {position} is not 0/1")
        slices.append(full if bit else 0)
    return slices


# ---------------------------------------------------------------------------
# Lane limits (memory-bounded pipelined execution)
# ---------------------------------------------------------------------------


#: Slice-payload budget in lane-bits behind every pass without an explicit
#: ``max_lanes``: the plan's cap keeps the sum of all of one pass's slots
#: at or under this many bits (2**28 bits = 32 MB packed).  A pass drops
#: each value after its last reader, so its live payload — the plan's peak
#: live set, in a key sweep mostly the swept key port — stays well below.
DEFAULT_LANE_BITS_BUDGET = 1 << 28


def plan_lane_bits(plan: EvalPlan) -> int:
    """Slice bits of every slot of ``plan`` per evaluation lane, summed.

    Every input and every step target holds ``width`` slice words of
    ``lanes`` bits each while it is live, so ``plan_lane_bits(plan) *
    lanes`` bounds a pass's packed payload from above.  The bound is loose
    on purpose: a pass drops each value after its last reader
    (:func:`release_schedule`), so what it holds at once is the plan's
    peak live set, not the sum.  The sum is cached on the plan object.
    """
    bits = getattr(plan, "_lane_bits", None)
    if bits is None:
        bits = sum(plan.width_of(name) for name in plan.inputs) \
            + sum(step.width for step in plan.steps)
        bits = max(1, bits)
        plan._lane_bits = bits  # type: ignore[attr-defined]
    return bits


def auto_max_lanes(plan: EvalPlan, base: int = 1) -> int:
    """The lane cap of ``plan``: the lane-bits budget over the plan's
    per-lane slice bits.  Every pass without an explicit ``max_lanes`` is
    capped by it.  The cap budgets the sum of all slots
    (:func:`plan_lane_bits`), so a pass's live payload, its peak live set,
    stays under the budget with room to spare.

    Never below ``base``: a sweep tile is a whole number of points, so the
    limit cannot cut below one point's V base lanes.
    """
    return max(base, DEFAULT_LANE_BITS_BUDGET // plan_lane_bits(plan))


# ---------------------------------------------------------------------------
# Plan execution
# ---------------------------------------------------------------------------


#: Per step of a step list, the names ``env`` drops once that step has run.
Release = List[Tuple[str, ...]]


def release_schedule(steps: Sequence[Step], keep: Collection[str]) -> Release:
    """The names each step of ``steps`` is the last to read or write.

    Every name outside ``keep`` is dropped right after its last use, so a
    pass holds only its live values: the inputs and results later steps
    still read, plus the ``keep`` names the caller reads afterwards.
    Inputs no step reads stay.
    """
    last_use: Dict[str, int] = {}
    for index, step in enumerate(steps):
        for name in step.reads:
            last_use[name] = index
        last_use[step.target] = index
    release: List[List[str]] = [[] for _ in steps]
    for name, index in last_use.items():
        if name not in keep:
            release[index].append(name)
    return [tuple(names) for names in release]


def execute_steps(steps: Sequence[Step], env: Dict[str, Slices], full: int,
                  release: Release) -> None:
    """Run ``steps`` in order, writing each result into ``env`` and
    dropping the names of ``release`` (see :func:`release_schedule`)."""
    for step, dead in zip(steps, release):
        env[step.target] = _fit(step.fn(env, full), step.width)
        for name in dead:
            env.pop(name, None)


def classify_steps(steps: Sequence[Step], inputs: Sequence[str],
                   varying: Set[str]) -> Tuple[List[Step], List[Step]]:
    """Split plan steps into (point-invariant, point-varying) for a sweep.

    A step is point-invariant when every name it reads is either an input
    outside the ``varying`` source set or the target of an earlier
    point-invariant step; order within each list is the plan order, so each
    list stays topologically sorted on its own.
    """
    invariant_names = {name for name in inputs if name not in varying}
    invariant: List[Step] = []
    point_varying: List[Step] = []
    for step in steps:
        if all(name in invariant_names for name in step.reads):
            invariant_names.add(step.target)
            invariant.append(step)
        else:
            point_varying.append(step)
    return invariant, point_varying


class _SweepSchedule:
    """Cached step split, tiling plan and release schedules of the sweeps
    for one varying set.

    Classification depends only on the plan and on which sources vary per
    point, so it is computed once per (plan, varying-set) pair and reused by
    every subsequent sweep — the schedules live on the plan object, which
    the process-wide plan cache shares across simulator instances.
    """

    __slots__ = ("invariant_steps", "varying_steps", "needed",
                 "invariant_outputs", "varying_outputs",
                 "invariant_release", "varying_release")

    def __init__(self, plan: EvalPlan, varying: FrozenSet[str]) -> None:
        invariant, point_varying = classify_steps(
            plan.steps, plan.inputs, set(varying))
        targets = {step.target for step in invariant}
        # Hoisting pays off when a meaningful share of the plan leaves
        # the S×V lanes (or a whole output can be extracted once from
        # the V-lane base batch); for key-cone-dominated plans the
        # base-batch bookkeeping would only add overhead, so fall back
        # to the flat schedule.
        profitable = any(name in targets for name in plan.outputs) \
            or 2 * len(invariant) >= len(plan.steps)
        if profitable:
            self.invariant_steps: List[Step] = invariant
            self.varying_steps: List[Step] = point_varying
            self.invariant_outputs: Tuple[str, ...] = tuple(
                name for name in plan.outputs if name in targets)
            self.varying_outputs = tuple(name for name in plan.outputs
                                         if name not in targets)
            needed: Set[str] = set()
            for step in self.varying_steps:
                needed.update(step.reads)
            self.needed: FrozenSet[str] = frozenset(needed)
        else:
            self.invariant_steps = []
            self.varying_steps = list(plan.steps)
            self.invariant_outputs = ()
            self.varying_outputs = tuple(plan.outputs)
            self.needed = frozenset(plan.inputs)
        # The invariant pass keeps what the tiles read and the hoisted
        # outputs; a tile keeps only its point-varying outputs.
        self.invariant_release = release_schedule(
            self.invariant_steps, self.needed | set(self.invariant_outputs))
        self.varying_release = release_schedule(self.varying_steps,
                                                self.varying_outputs)


def sweep_schedule(plan: EvalPlan,
                   varying: FrozenSet[str]) -> _SweepSchedule:
    """The (cached) sweep schedule of ``plan`` for one set of varying sources."""
    cache = getattr(plan, "_sweep_schedules", None)
    if cache is None:
        cache = {}
        plan._sweep_schedules = cache  # type: ignore[attr-defined]
    schedule = cache.get(varying)
    if schedule is None:
        schedule = _SweepSchedule(plan, varying)
        cache[varying] = schedule
    return schedule


def batch_release(plan: EvalPlan) -> Release:
    """The (cached) release schedule of ``run_batch``: it keeps the
    plan's outputs."""
    release = getattr(plan, "_batch_release", None)
    if release is None:
        release = release_schedule(plan.steps, plan.outputs)
        plan._batch_release = release  # type: ignore[attr-defined]
    return release


# ---------------------------------------------------------------------------
# The batch simulator
# ---------------------------------------------------------------------------


class SweepDifferences(NamedTuple):
    """How far each sweep point's outputs differ from point 0's.

    Attributes:
        outputs: The compared outputs.
        lanes: Per point after point 0, the base lanes on which any output
            differs from point 0.
        bits: Per point after point 0, the output bits that differ from
            point 0, summed over all base lanes.
    """

    outputs: Tuple[str, ...]
    lanes: List[int]
    bits: List[int]


class _Sweep(NamedTuple):
    """A validated sweep whose point-invariant work has run (V lanes)."""

    schedule: _SweepSchedule
    base: int
    points: int
    needed_env: Dict[str, Slices]
    invariant_env: Dict[str, Slices]
    bindings: List[Mapping[str, int]]
    bound: Set[str]
    swept_keys: Optional[List[Sequence[int]]]


def check_sweep(inputs: Mapping[str, Sequence[int]],
                keys: Optional[Sequence[Sequence[int]]],
                bindings: Optional[Sequence[Mapping[str, int]]],
                n: Optional[int], design_inputs: Collection[str],
                key_port: Optional[str],
                top: str) -> Tuple[int, int, Set[str]]:
    """Check one sweep's arguments; every engine calls this first.

    The batch sweeps of :class:`BatchSimulator` and the scalar engine of
    :func:`repro.sim.sweep_differences` share it, so a bad sweep raises the
    same error whichever engine would have run it.

    Args:
        inputs: Shared base batch ``{input name: [value per lane]}``.
        keys: One key per sweep point, or ``None``.
        bindings: Per-point input overrides, or ``None``.
        n: Base lane count override.
        design_inputs: The design's primary inputs (key port included).
        key_port: The design's key port (``None`` when unlocked).
        top: The design's top module name, for the messages.

    Returns:
        ``(base lanes, sweep points, names bound in any point)``.

    Raises:
        SimulationError: for inconsistent lane or point counts, key sweeps
            of unlocked designs, unknown signals, a bound key port, or an
            input that is both shared and bound.
    """
    base = n
    for name, values in inputs.items():
        if base is None:
            base = len(values)
        elif len(values) != base:
            raise SimulationError(
                f"input {name!r} has {len(values)} lanes, expected {base}")
    if base is None or base < 1:
        raise SimulationError("sweep needs at least one base lane "
                              "(pass inputs or n)")
    points = len(keys) if keys is not None else None
    if bindings is not None:
        if points is None:
            points = len(bindings)
        elif len(bindings) != points:
            raise SimulationError(
                f"got {len(bindings)} bindings for {points} sweep points")
    if points is None or points < 1:
        raise SimulationError("sweep needs at least one point "
                              "(pass keys or bindings)")
    if keys is not None and key_port is None:
        raise SimulationError("cannot sweep keys of an unlocked design")
    bound: Set[str] = set()
    for point in bindings or ():
        bound.update(point)
    for name in bound:
        if name not in design_inputs:
            raise SimulationError(f"{name!r} is not an input of {top!r}")
        if name == key_port:
            raise SimulationError(
                "sweep the key port via 'keys', not 'bindings'")
    for name in inputs:
        if name not in design_inputs:
            raise SimulationError(f"{name!r} is not an input of {top!r}")
        if name in bound:
            raise SimulationError(
                f"input {name!r} is both shared and swept per point")
    return base, points, bound


class BatchSimulator:
    """Evaluate many input vectors of a design in one bit-parallel pass.

    Args:
        design: The design to simulate (locked or not).
        plan: A pre-compiled plan (compiled on demand when omitted); passing
            one plan to several simulators shares the compilation cost.

    Raises:
        SimulationError: for dependency cycles.
        BatchCompileError: for constructs without a static bit-slice form.
    """

    def __init__(self, design: Design, plan: Optional[EvalPlan] = None) -> None:
        self.design = design
        if plan is None:
            from .passes import compile_plan
            plan = compile_plan(design)
        self.plan = plan

    # ------------------------------------------------------------- accessors

    @property
    def input_names(self) -> List[str]:
        """Primary input names (including the key port of a locked design)."""
        return list(self.plan.inputs)

    @property
    def output_names(self) -> List[str]:
        """Primary output names driven by combinational logic."""
        return list(self.plan.outputs)

    def width_of(self, name: str) -> int:
        """Declared width of a signal."""
        return self.plan.width_of(name)

    # ------------------------------------------------------------ simulation

    def _resolve_max_lanes(self, max_lanes: Optional[int],
                           base: int = 1) -> int:
        """The lane cap of one call: an explicit ``max_lanes``, else the
        plan's cap (:func:`auto_max_lanes`).  ``base`` is the lower bound a
        sweep cannot tile below (one point).
        """
        if max_lanes is None:
            return auto_max_lanes(self.plan, base)
        if max_lanes < 1:
            raise SimulationError(
                f"max_lanes must be positive or None; got {max_lanes}")
        return max_lanes

    def run_batch(self, inputs: Mapping[str, Sequence[int]],
                  key: Optional[Sequence[int]] = None,
                  n: Optional[int] = None,
                  max_lanes: Optional[int] = None) -> Dict[str, List[int]]:
        """Evaluate the design for a batch of input vectors.

        Args:
            inputs: ``{input name: [value per lane]}``; all sequences must
                share one length, missing inputs default to 0 in every lane.
            key: One key applied to every lane (broadcast).
            n: Lane count override, required when ``inputs`` is empty.
            max_lanes: Peak lane width of one bit-parallel pass; larger
                batches are split into chunks of at most this many lanes and
                streamed through the engine (``None``: the plan's cap, see
                :func:`auto_max_lanes`).  Results are bit-identical to the
                unchunked pass.

        Returns:
            ``{output name: [value per lane]}``.

        Raises:
            SimulationError: for unknown input names, inconsistent lane
                counts, invalid key bits, or a non-positive ``max_lanes``.
        """
        lanes = n
        for name, values in inputs.items():
            if lanes is None:
                lanes = len(values)
            elif len(values) != lanes:
                raise SimulationError(
                    f"input {name!r} has {len(values)} lanes, expected {lanes}")
        if lanes is None or lanes < 1:
            raise SimulationError("batch needs at least one lane "
                                  "(pass inputs or n)")
        limit = self._resolve_max_lanes(max_lanes)
        if lanes > limit:
            return self._run_batch_chunked(inputs, key, lanes, limit)
        full = (1 << lanes) - 1

        known = set(self.plan.inputs)
        env: Dict[str, Slices] = {}
        for name, values in inputs.items():
            if name not in known:
                raise SimulationError(f"{name!r} is not an input of "
                                      f"{self.design.top_name!r}")
            env[name] = pack_values(values, self.width_of(name))
        for name in self.plan.inputs:
            if name not in env:
                env[name] = [0] * self.width_of(name)

        key_port = self.plan.key_port
        if key_port is not None and key is not None:
            env[key_port] = _fit(_pack_key_broadcast(key, full),
                                 self.width_of(key_port))

        execute_steps(self.plan.steps, env, full, batch_release(self.plan))

        return {name: unpack_values(env[name], lanes)
                for name in self.plan.outputs}

    def _run_batch_chunked(self, inputs: Mapping[str, Sequence[int]],
                           key: Optional[Sequence[int]],
                           lanes: int, limit: int) -> Dict[str, List[int]]:
        """Stream a batch through :meth:`run_batch` in lane chunks.

        Lane-parallel kernels never mix bits across lanes, so evaluating
        lane slices independently is bit-identical to one wide pass.
        """
        results: Dict[str, List[int]] = {name: [] for name in self.plan.outputs}
        for start in range(0, lanes, limit):
            stop = min(start + limit, lanes)
            chunk_inputs = {name: values[start:stop]
                            for name, values in inputs.items()}
            chunk = self.run_batch(chunk_inputs, key=key, n=stop - start,
                                   max_lanes=stop - start)
            for name, values in chunk.items():
                results[name].extend(values)
        return results

    def run_sweep(self, inputs: Mapping[str, Sequence[int]],
                  keys: Optional[Sequence[Sequence[int]]] = None,
                  bindings: Optional[Sequence[Mapping[str, int]]] = None,
                  n: Optional[int] = None,
                  max_lanes: Optional[int] = None
                  ) -> List[Dict[str, List[int]]]:
        """Evaluate S sweep points over one shared input batch in one pass.

        A sweep is the outer product of a *base batch* (``inputs``, V lanes)
        and S *sweep points*, each binding its own key and/or values for
        designated input signals.  All ``S * V`` combinations are laid out as
        lanes of a single bit-parallel pass — the replacement for the per-key
        loop ``[run_batch(inputs, key=k) for k in keys]``, which pays the
        plan-interpretation overhead S times instead of once.

        Point-invariant steps — those reading neither a swept key port nor
        a per-point bound signal, directly or transitively — are evaluated
        *once* on the V base lanes and their results tiled across the S
        point blocks, instead of being re-evaluated on all S×V lanes
        (unless the plan's schedule falls back to the flat split, see
        :func:`sweep_schedule`).  Identical keys on every point (the
        avalanche-study shape) make the whole key cone point-invariant too.
        Results are bit-identical either way.

        Args:
            inputs: Shared base batch ``{input name: [value per lane]}``; all
                sequences must share one length.  Signals bound per point must
                not also appear here.
            keys: One key per sweep point (requires a locked design).
            bindings: Per-point input overrides ``{input name: value}``; the
                value is broadcast over the point's base lanes.  A signal
                bound in one point but omitted in another defaults to 0 for
                the latter.  The key port must be swept via ``keys``.
            n: Base lane count override, required when ``inputs`` is empty.
            max_lanes: Peak lane width of one bit-parallel pass.  Sweeps
                wider than this are split into point tiles of
                ``max(1, max_lanes // V)`` points each: invariant work still
                runs once on the V base lanes, then each tile streams through
                pack → execute → unpack with bounded peak memory
                (``None``: the plan's cap, see :func:`auto_max_lanes`).
                Results are bit-identical to the unchunked pass; the
                effective floor is one point (V lanes).

        Returns:
            One ``{output name: [value per base lane]}`` dict per sweep
            point, in point order — element ``s`` equals
            ``run_batch(inputs, key=keys[s])`` bit for bit.  Keys follow
            ``plan.outputs`` order in every path.

        Raises:
            SimulationError: for unknown signals, inconsistent lane or point
                counts, invalid key bits, key sweeps on unlocked designs, or
                a non-positive ``max_lanes``.
        """
        sweep = self._prepare_sweep(inputs, keys, bindings, n)
        base = sweep.base
        invariant_values = {name: unpack_values(slices, base)
                            for name, slices in sweep.invariant_env.items()}
        varying_outputs = sweep.schedule.varying_outputs
        results: List[Dict[str, List[int]]] = []
        for first, last in self._sweep_tiles(sweep, max_lanes):
            lanes = (last - first) * base
            # The comb multiply, not the byte repeat of sweep_differences:
            # byte repeat speeds a flat schedule more than a hoisted one and
            # would shrink the value-numbering ratio that the sweep_vn gate
            # in benchmarks/ asserts, for no caller's benefit — the metrics
            # count with sweep_differences, and this path serves value
            # cross-checks.
            env = self._execute_tile(sweep, first, last, _comb_replicate)
            # Point-varying outputs: one flat unpack over the tile's lanes,
            # then sliced per point — cheaper than points * (shift/mask +
            # unpack) on the wide sweep words.  Point-invariant outputs were
            # unpacked once from the V-lane base batch and are copied per
            # point.  Every point dict follows plan.outputs order.
            flat = {name: unpack_values(env[name], lanes)
                    for name in varying_outputs}
            del env  # release the tile before the next one executes
            for start in range(0, lanes, base):
                results.append({
                    name: (flat[name][start:start + base] if name in flat
                           else list(invariant_values[name]))
                    for name in self.plan.outputs})
        return results

    def sweep_differences(self, inputs: Mapping[str, Sequence[int]],
                          keys: Optional[Sequence[Sequence[int]]] = None,
                          bindings: Optional[Sequence[Mapping[str, int]]]
                          = None,
                          n: Optional[int] = None) -> SweepDifferences:
        """Count how far every sweep point's outputs differ from point 0's.

        The compare-only form of :meth:`run_sweep`: same sweep arguments,
        same point tiles under the plan's lane cap, same invariant hoisting,
        but the per-lane values are never unpacked.  Each tile's output
        slice words are XORed against point 0's (cut from the first tile and
        replicated into every point block), the XOR words are ORed into one
        any-difference mask, and both are popcounted per V-lane point block.
        Point-invariant outputs are equal on every point, so they contribute
        nothing.

        Returns:
            A :class:`SweepDifferences` over ``plan.outputs`` whose ``lanes``
            and ``bits`` equal ``differing_lanes`` and the per-lane
            ``bit_count`` of the XOR, run on :meth:`run_sweep`'s point 0 and
            each later point.

        Raises:
            SimulationError: as :meth:`run_sweep`.
        """
        sweep = self._prepare_sweep(inputs, keys, bindings, n)
        base = sweep.base
        lanes: List[int] = []
        bits: List[int] = []
        reference: Optional[Dict[str, Slices]] = None
        for first, last in self._sweep_tiles(sweep, None):
            env = self._execute_tile(sweep, first, last, _replicate)
            if reference is None:
                block = (1 << base) - 1
                reference = {name: [word & block for word in env[name]]
                             for name in sweep.schedule.varying_outputs}
            tile_lanes, tile_bits = _count_differences(env, reference, base,
                                                       last - first)
            del env  # release the tile before the next one executes
            lanes.extend(tile_lanes)
            bits.extend(tile_bits)
        return SweepDifferences(tuple(self.plan.outputs), lanes[1:], bits[1:])

    def _prepare_sweep(self, inputs: Mapping[str, Sequence[int]],
                       keys: Optional[Sequence[Sequence[int]]],
                       bindings: Optional[Sequence[Mapping[str, int]]],
                       n: Optional[int]) -> _Sweep:
        """Validate a sweep and run its point-invariant work on the V lanes."""
        key_port = self.plan.key_port
        base, points, bound = check_sweep(inputs, keys, bindings, n,
                                          set(self.plan.inputs), key_port,
                                          self.design.top_name)
        block = (1 << base) - 1

        # Point-varying sources: per-point bound signals, and the key port
        # unless every point binds the same key (then it broadcasts).
        varying: Set[str] = set(bound)
        shared_key: Optional[List[int]] = None
        if keys is not None:
            first = list(keys[0])
            if all(list(point_key) == first for point_key in keys):
                shared_key = first
            else:
                varying.add(key_port)

        # Base environment at V lanes: shared inputs and zero defaults for
        # everything that is not swept per point.
        base_env: Dict[str, Slices] = {
            name: pack_values(values, self.width_of(name))
            for name, values in inputs.items()}
        for name in self.plan.inputs:
            if name not in base_env and name not in varying:
                base_env[name] = [0] * self.width_of(name)
        if shared_key is not None and key_port is not None:
            base_env[key_port] = _fit(_pack_key_broadcast(shared_key, block),
                                      self.width_of(key_port))

        schedule = sweep_schedule(self.plan, frozenset(varying))

        # Invariant work runs once on the V base lanes; only what the
        # varying steps read is kept for tiling out to the sweep lanes, plus
        # the swept-out outputs themselves.
        execute_steps(schedule.invariant_steps, base_env, block,
                      schedule.invariant_release)
        return _Sweep(
            schedule=schedule, base=base, points=points,
            needed_env={name: slices for name, slices in base_env.items()
                        if name in schedule.needed},
            invariant_env={name: base_env[name]
                           for name in schedule.invariant_outputs},
            bindings=list(bindings or ()), bound=bound,
            swept_keys=list(keys) if keys is not None and shared_key is None
            else None)

    def _sweep_tiles(self, sweep: _Sweep,
                     max_lanes: Optional[int]) -> List[Tuple[int, int]]:
        """Point ranges ``[first, last)`` of the sweep's tiles, in order."""
        step = max(1, self._resolve_max_lanes(max_lanes, sweep.base)
                   // sweep.base)
        return [(first, min(first + step, sweep.points))
                for first in range(0, sweep.points, step)]

    def _execute_tile(self, sweep: _Sweep, first: int, last: int,
                      replicate: Callable[[int, int, int], int]
                      ) -> Dict[str, Slices]:
        """Run the varying steps on sweep points ``[first, last)``.

        Lane-parallel kernels never mix bits across lanes, so each point
        block is independent and tiling is bit-identical to one wide pass.
        The ragged last tile simply gets narrower pack constants.
        ``replicate`` tiles the V-lane words the varying steps read.

        Returns:
            The tile's point-varying outputs (every other value is dropped
            after its last reader), every slice word ``(last - first) * V``
            lanes wide.
        """
        points = last - first
        base = sweep.base
        env: Dict[str, Slices] = {
            name: [replicate(word, base, points) for word in slices]
            for name, slices in sweep.needed_env.items()
        }
        for name in sweep.bound:
            env[name] = _pack_point_values(
                [point.get(name, 0) for point in sweep.bindings[first:last]],
                self.width_of(name), base)
        port = self.plan.key_port
        if sweep.swept_keys is not None and port is not None:
            width = self.width_of(port)
            env[port] = _fit(_pack_swept_keys(sweep.swept_keys[first:last],
                                              width, base), width)
        execute_steps(sweep.schedule.varying_steps, env,
                      (1 << points * base) - 1,
                      sweep.schedule.varying_release)
        return env

    def run(self, inputs: Mapping[str, int],
            key: Optional[Sequence[int]] = None) -> Dict[str, int]:
        """Single-vector convenience wrapper around :meth:`run_batch`."""
        batch = {name: [value] for name, value in inputs.items()}
        outputs = self.run_batch(batch, key=key, n=1)
        return {name: values[0] for name, values in outputs.items()}

    def random_batch(self, rng: random.Random,
                     n: int) -> Dict[str, List[int]]:
        """Draw ``n`` random vectors for every data input (key port excluded).

        Delegates to :func:`repro.sim.vectors.random_vector_batch`, which
        consumes the random stream in exactly the same order as ``n`` calls
        to :meth:`CombinationalSimulator.random_vector`, so a shared ``rng``
        seed produces identical test vectors on both engines.
        """
        from ..vectors import random_vector_batch
        signals = [(name, self.width_of(name)) for name in self.plan.inputs
                   if name != self.plan.key_port]
        return random_vector_batch(signals, rng, n)
