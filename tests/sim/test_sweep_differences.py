"""The compare-only sweep: counting on slice words changes speed, not numbers.

``BatchSimulator.sweep_differences`` never unpacks a lane: it XORs every
tile's output slices against point 0's and popcounts them per point block.
Its counts must equal what the value path gives — ``run_sweep``, then
``differing_lanes`` and the per-lane ``bit_count`` of the XOR against
point 0 — for every tiling, key and binding sweeps, hoisted outputs,
and base widths that are and are not whole bytes.  The
module-level :func:`repro.sim.sweep_differences` and
:meth:`CombinationalSimulator.sweep_differences` (the engine of
uncompilable designs) must give the same counts.
Sweeps of single-bit key flips take the cone path and run no tile; their
counts are held to both references in one case table (``CONE_CASES``).
A tile's point block is V rounded up to whole bytes; at base widths that
are not, ``PADDED_CASES`` hold the values to a per-point ``run_batch``
loop and the counts to the scalar engine, neither of which pads.
"""

import contextlib
import random
from unittest import mock

import pytest

from repro.bench import load_benchmark
from repro.locking import AssureLocker, ERALocker, HRALocker
from repro.rtlir import Design, KeyBit
from repro.sim import (
    BatchSimulator,
    CombinationalSimulator,
    SimulationError,
    SweepDifferences,
    differing_lanes,
    plan_lane_bits,
    random_input_batch,
    random_key,
    sweep_differences,
)
from repro.sim.plan import executor
from repro.sim.plan.executor import (_replicate, block_lanes, key_cones,
                                     sweep_schedule)
from tests.attacks.test_sweep_regression import UNCOMPILABLE, _oddball_locked
from tests.helpers import flip_bits
from tests.sim.test_pipelined_sweep import _recorded_tiles

#: Base widths: whole bytes (byte-repeat tiling, byte popcounts) and not.
BASES = [64, 100, 33]

POINTS = 7

#: Lane caps in points: the plan's default cap (one tile), one-point tiles,
#: and 3-point tiles (a ragged last tile of one point over 7 points).
LANE_CAPS = [None, 1, 3]

#: Two outputs; with a shared key and ``a`` bound per point, ``y`` reads
#: neither and is hoisted out of the sweep.
SPLIT = """
module split (input [7:0] a, input [7:0] b, input [1:0] lock_key,
              output [8:0] x, output [7:0] y);
  assign x = lock_key[0] ? (a + b) : (a - b);
  assign y = lock_key[1] ? (b ^ 8'h5a) : (b + 8'd1);
endmodule
"""


#: Bad sweeps held as data: (id, locked design?, sweep arguments, the
#: SimulationError message every engine raises; ``{top}`` is the design's
#: top module).
BAD_SWEEPS = [
    ("ragged-inputs", True,
     {"inputs": {"a": [1, 2], "b": [3]}, "keys": [[1, 0]]},
     "input 'b' has 1 lanes, expected 2"),
    ("n-disagrees-with-inputs", True,
     {"inputs": {"a": [1, 2]}, "keys": [[1, 0]], "n": 3},
     "input 'a' has 2 lanes, expected 3"),
    ("no-lanes", True, {"inputs": {}, "keys": [[1, 0]]},
     "sweep needs at least one base lane (pass inputs or n)"),
    ("zero-lanes", True, {"inputs": {}, "keys": [[1, 0]], "n": 0},
     "sweep needs at least one base lane (pass inputs or n)"),
    ("no-points", True, {"inputs": {"a": [1]}},
     "sweep needs at least one point (pass keys or bindings)"),
    ("empty-keys", True, {"inputs": {"a": [1]}, "keys": []},
     "sweep needs at least one point (pass keys or bindings)"),
    ("bindings-per-point", True,
     {"inputs": {"b": [1]}, "keys": [[1, 0], [0, 1]], "bindings": [{"a": 1}]},
     "got 1 bindings for 2 sweep points"),
    ("keys-of-unlocked-design", False, {"inputs": {"a": [1]}, "keys": [[0]]},
     "cannot sweep keys of an unlocked design"),
    ("unknown-shared-input", True, {"inputs": {"zz": [1]}, "keys": [[1, 0]]},
     "'zz' is not an input of {top!r}"),
    ("unknown-bound-input", True,
     {"inputs": {"a": [1]}, "bindings": [{"zz": 1}]},
     "'zz' is not an input of {top!r}"),
    ("key-port-bound", True,
     {"inputs": {"a": [1]}, "bindings": [{"lock_key": 1}]},
     "sweep the key port via 'keys', not 'bindings'"),
    ("input-shared-and-bound", True,
     {"inputs": {"a": [1]}, "bindings": [{"a": 2}]},
     "input 'a' is both shared and swept per point"),
    ("key-too-short", True, {"inputs": {"a": [1]}, "keys": [[1, 0], [1]]},
     "key of sweep point 1 has 1 bits, expected 2"),
    ("key-too-long", True, {"inputs": {"a": [1]}, "keys": [[1, 0, 1]]},
     "key of sweep point 0 has 3 bits, expected 2"),
    ("key-bit-not-binary", True,
     {"inputs": {"a": [1]}, "keys": [[1, 0], [2, 0]]},
     "key bit 0 of sweep point 1 is not 0/1"),
]


#: Bad keys of a broadcast-key run held as data: (id, the key applied to
#: every lane of the 2-bit ``lock_key`` port, the SimulationError message
#: every engine raises).
BAD_KEYS = [
    ("key-too-short", [1], "key has 1 bits, expected 2"),
    ("key-too-long", [0, 0, 1], "key has 3 bits, expected 2"),
    ("empty-key", [], "key has 0 bits, expected 2"),
    ("key-bit-not-binary", [1, 2], "key bit 1 is not 0/1"),
]


#: Bad batches of ``run_batch`` held as data: (id, arguments, the
#: SimulationError message every engine raises; ``{top}`` is the design's
#: top module).
BAD_BATCHES = [
    ("ragged-inputs", {"inputs": {"a": [1, 2], "b": [3]}},
     "input 'b' has 1 lanes, expected 2"),
    ("n-disagrees-with-inputs", {"inputs": {"a": [1, 2]}, "n": 3},
     "input 'a' has 2 lanes, expected 3"),
    ("no-lanes", {"inputs": {}},
     "batch needs at least one lane (pass inputs or n)"),
    ("zero-lanes", {"inputs": {}, "n": 0},
     "batch needs at least one lane (pass inputs or n)"),
    ("unknown-input", {"inputs": {"zz": [1]}},
     "'zz' is not an input of {top!r}"),
]

#: Good batches of ``run_batch``: (id, arguments).  Missing inputs are 0
#: in every lane; without a key the key port is 0.
GOOD_BATCHES = [
    ("all-inputs", {"inputs": {"a": [1, 200, 255], "b": [7, 8, 250]},
                    "key": [1, 0]}),
    ("wrong-key", {"inputs": {"a": [1, 200, 255], "b": [7, 8, 250]},
                   "key": [0, 1]}),
    ("missing-input", {"inputs": {"a": [3, 4]}, "key": [1, 1]}),
    ("lanes-from-n", {"inputs": {}, "n": 4, "key": [0, 0]}),
    ("no-key", {"inputs": {"b": [9]}}),
]


def _locked_md5(seed=0, scale=0.15):
    design = load_benchmark("MD5", scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    return ERALocker(rng=random.Random(seed),
                     track_metrics=False).lock(design, budget).design


def _split_locked(locked=True):
    design = Design.from_verilog(SPLIT)
    if not locked:
        return design
    design.key_port = "lock_key"
    design.key_bits = [
        KeyBit(index=0, kind="operation", correct_value=1),
        KeyBit(index=1, kind="operation", correct_value=0),
    ]
    return design


def _expected(runs, base):
    """Reference counts from the unpacked values of ``run_sweep``."""
    reference, *others = runs
    lanes, bits = [], []
    for run in others:
        differing = differing_lanes(reference, run, n=base)
        lanes.append(len(differing))
        bits.append(sum((reference[name][lane] ^ run[name][lane]).bit_count()
                        for lane in differing for name in reference))
    return lanes, bits


def _point_cap(simulator, base, lane_cap):
    """A lane cap of ``lane_cap`` points (``None``: the plan's own): the
    lane-bits budget shrunk so the plan's cap is that many point blocks."""
    if lane_cap is None:
        return contextlib.nullcontext()
    return mock.patch.object(executor, "DEFAULT_LANE_BITS_BUDGET",
                             lane_cap * block_lanes(base)
                             * plan_lane_bits(simulator.plan))


def _assert_matches(simulator, base, lane_cap, **sweep):
    with _point_cap(simulator, base, lane_cap):
        runs = simulator.run_sweep(n=base, **sweep)
        counted = simulator.sweep_differences(n=base, **sweep)
    assert counted.outputs == tuple(simulator.output_names)
    assert (counted.lanes, counted.bits) == _expected(runs, base)
    return counted


class TestReplicate:
    @pytest.mark.parametrize("base", [8, 64, 100, 33, 1])
    @pytest.mark.parametrize("points", [1, 2, 7, 64])
    def test_equals_comb_multiply(self, base, points):
        # A V-lane word into point blocks of V rounded up to whole bytes;
        # the reference is the comb multiply, one copy of lane 0's bit per
        # block.
        block = block_lanes(base)
        rng = random.Random(base * 1000 + points)
        comb = ((1 << block * points) - 1) // ((1 << block) - 1)
        for word in (0, 1, (1 << base) - 1, rng.getrandbits(base)):
            assert _replicate(word, block, points) == word * comb


class TestKeySweeps:
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_tilings(self, lane_cap):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        rng = random.Random(1)
        batch = random_input_batch(locked, rng, 64)
        keys = [locked.correct_key] + [random_key(locked.key_width, rng)
                                       for _ in range(POINTS - 1)]
        counted = _assert_matches(simulator, 64, lane_cap, inputs=batch,
                                  keys=keys)
        assert len(counted.lanes) == POINTS - 1
        assert any(counted.bits)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_base_widths(self, base, lane_cap):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        rng = random.Random(base)
        batch = random_input_batch(locked, rng, base)
        keys = [random_key(locked.key_width, rng) for _ in range(POINTS)]
        _assert_matches(simulator, base, lane_cap, inputs=batch, keys=keys)

    def test_identical_keys_differ_nowhere(self):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        batch = random_input_batch(locked, random.Random(2), 64)
        counted = simulator.sweep_differences(
            batch, keys=[locked.correct_key] * POINTS, n=64)
        assert counted == SweepDifferences(tuple(simulator.output_names),
                                           [0] * (POINTS - 1),
                                           [0] * (POINTS - 1))

    def test_single_point_has_nothing_to_compare(self):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        batch = random_input_batch(locked, random.Random(3), 64)
        counted = simulator.sweep_differences(
            batch, keys=[locked.correct_key], n=64)
        assert counted.lanes == [] and counted.bits == []


class TestBindingSweeps:
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_shared_key_hoists_outputs(self, base, lane_cap):
        locked = _split_locked()
        simulator = BatchSimulator(locked)
        schedule = sweep_schedule(simulator.plan, frozenset({"a"}))
        assert schedule.invariant_outputs == ("y",)
        rng = random.Random(base)
        batch = {"b": [rng.getrandbits(8) for _ in range(base)]}
        bindings = [{"a": rng.getrandbits(8)} for _ in range(POINTS)]
        _assert_matches(simulator, base, lane_cap, inputs=batch,
                        keys=[locked.correct_key] * POINTS,
                        bindings=bindings)

    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize("lane_cap", LANE_CAPS)
    def test_bindings_with_per_point_keys(self, base, lane_cap):
        locked = _locked_md5()
        simulator = BatchSimulator(locked)
        data = [name for name in simulator.plan.inputs
                if name != locked.key_port]
        swept = data[0]
        rng = random.Random(base + 1)
        batch = {name: values for name, values
                 in random_input_batch(locked, rng, base).items()
                 if name != swept}
        bindings = [{swept: rng.getrandbits(simulator.width_of(swept))}
                    for _ in range(POINTS)]
        keys = [random_key(locked.key_width, rng) for _ in range(POINTS)]
        _assert_matches(simulator, base, lane_cap, inputs=batch, keys=keys,
                        bindings=bindings)
        _assert_matches(simulator, base, lane_cap, inputs=batch,
                        keys=[locked.correct_key] * POINTS,
                        bindings=bindings)


class TestEntryPoint:
    """``repro.sim.sweep_differences``: both engines, one set of counts."""

    @pytest.mark.parametrize("base", BASES)
    def test_scalar_engine_matches_batch(self, base):
        locked = _locked_md5()
        rng = random.Random(base + 2)
        batch = random_input_batch(locked, rng, base)
        keys = [random_key(locked.key_width, rng) for _ in range(4)]
        fast = sweep_differences(locked, batch, keys=keys, n=base)
        slow = CombinationalSimulator(locked).sweep_differences(
            batch, keys=keys, n=base)
        assert fast == slow

    def test_scalar_engine_supports_bindings(self):
        locked = _split_locked()
        rng = random.Random(4)
        batch = {"b": [rng.getrandbits(8) for _ in range(33)]}
        bindings = [{"a": value} for value in (0, 1, 128, 255)]
        keys = [locked.correct_key, [0, 0], [1, 1], [0, 1]]
        fast = sweep_differences(locked, batch, keys=keys,
                                 bindings=bindings, n=33)
        slow = CombinationalSimulator(locked).sweep_differences(
            batch, keys=keys, bindings=bindings, n=33)
        assert fast == slow
        assert any(fast.bits)

    def test_uncompilable_design_takes_the_scalar_path(self):
        locked = _oddball_locked()
        rng = random.Random(5)
        batch = random_input_batch(locked, rng, 24)
        correct = locked.correct_key
        keys = [correct, flip_bits(correct, [0]), flip_bits(correct, [1]),
                flip_bits(correct, [0, 1])]
        counted = sweep_differences(locked, batch, keys=keys, n=24)
        scalar = CombinationalSimulator(locked).sweep_differences(
            batch, keys=keys, n=24)
        assert counted == scalar
        assert counted.outputs == ("y", "z")
        assert all(lanes > 0 for lanes in counted.lanes)

    def test_rejects_bad_requests(self):
        locked = _locked_md5()
        batch = random_input_batch(locked, random.Random(6), 8)
        unlocked = load_benchmark("MD5", scale=0.15, seed=0)
        for sweep in (sweep_differences,
                      lambda design, *args, **kwargs: CombinationalSimulator(
                          design).sweep_differences(*args, **kwargs)):
            with pytest.raises(SimulationError):
                sweep(unlocked, batch, keys=[[0]], n=8)
            with pytest.raises(SimulationError):
                sweep(locked, batch, n=8)


class TestBadSweeps:
    """One set of checks (``check_sweep``), one message, on every engine —
    the batch sweep, the scalar engine, the scalar fallback an
    uncompilable design takes from the batch entry, and ``run_sweep``."""

    @pytest.mark.parametrize("engine", ["batch", "scalar", "fallback",
                                        "run_sweep"])
    @pytest.mark.parametrize("locked,sweep,message",
                             [case[1:] for case in BAD_SWEEPS],
                             ids=[case[0] for case in BAD_SWEEPS])
    def test_every_engine_raises_the_same_error(self, engine, locked, sweep,
                                                message):
        if engine == "fallback":
            design = _oddball_locked() if locked \
                else Design.from_verilog(UNCOMPILABLE)
        else:
            design = _split_locked(locked)
        with pytest.raises(SimulationError) as excinfo:
            if engine == "run_sweep":
                BatchSimulator(design).run_sweep(**sweep)
            elif engine == "scalar":
                CombinationalSimulator(design).sweep_differences(**sweep)
            else:
                sweep_differences(design, **sweep)
        assert str(excinfo.value) == message.format(top=design.top_name)


class TestBadKeys:
    """The one key of ``run`` / ``run_batch``: one check (``check_key``),
    one message, on the batch engine (one pass and lane chunks) and the
    scalar engine."""

    @pytest.mark.parametrize("engine", ["batch", "batch-chunked",
                                        "batch-run", "scalar"])
    @pytest.mark.parametrize("key,message", [case[1:] for case in BAD_KEYS],
                             ids=[case[0] for case in BAD_KEYS])
    def test_every_engine_raises_the_same_error(self, engine, key, message):
        design = _split_locked()
        with pytest.raises(SimulationError) as excinfo:
            if engine == "scalar":
                CombinationalSimulator(design).run({"a": 1}, key=key)
            elif engine == "batch-run":
                BatchSimulator(design).run({"a": 1}, key=key)
            else:
                BatchSimulator(design).run_batch(
                    {"a": [1, 2, 3]}, key=key,
                    max_lanes=1 if engine == "batch-chunked" else None)
        assert str(excinfo.value) == message


class TestRunBatch:
    """``run_batch`` of both engines: one lane check (``check_lanes``), one
    message, and the same outputs."""

    @pytest.mark.parametrize("engine", ["batch", "batch-chunked", "scalar"])
    @pytest.mark.parametrize("batch,message",
                             [case[1:] for case in BAD_BATCHES],
                             ids=[case[0] for case in BAD_BATCHES])
    def test_every_engine_raises_the_same_error(self, engine, batch,
                                                message):
        design = _split_locked()
        with pytest.raises(SimulationError) as excinfo:
            if engine == "scalar":
                CombinationalSimulator(design).run_batch(**batch)
            else:
                BatchSimulator(design).run_batch(
                    **batch, max_lanes=1 if engine == "batch-chunked"
                    else None)
        assert str(excinfo.value) == message.format(top=design.top_name)

    @pytest.mark.parametrize("batch", [case[1] for case in GOOD_BATCHES],
                             ids=[case[0] for case in GOOD_BATCHES])
    def test_scalar_engine_equals_the_batch_engine(self, batch):
        design = _split_locked()
        assert CombinationalSimulator(design).run_batch(**batch) \
            == BatchSimulator(design).run_batch(**batch)


# ---------------------------------------------------------------------------
# Single-bit key flips: the cone path against the tiles and the scalar engine
# ---------------------------------------------------------------------------

#: Reads the key whole (``lock_key == ...``) and by a static bit-select.
WHOLE_KEY = """
module whole (input [7:0] a, input [7:0] b, input [2:0] lock_key,
              output [7:0] x, output [7:0] y);
  assign x = (lock_key == 3'd5) ? (a + b) : (a ^ b);
  assign y = lock_key[1] ? (b - a) : (a & b);
endmodule
"""

#: Reads the key by a dynamic index and by a static bit-select.
DYNAMIC_KEY = """
module dynamic (input [7:0] a, input [3:0] lock_key,
                output [1:0] x, output [7:0] y);
  assign x = {lock_key[a[1:0]], lock_key[3]};
  assign y = lock_key[2] ? (a + 8'd1) : (a - 8'd1);
endmodule
"""

#: Reads the key by part-selects (``[3:1]``, ``[5 +: 2]``) and a bit-select;
#: bit 7 is never read.
PART_KEY = """
module part (input [7:0] a, input [7:0] b, input [7:0] lock_key,
             output [7:0] x, output [7:0] y, output [1:0] z);
  assign x = lock_key[3:1] + a;
  assign y = lock_key[0] ? (a * b) : (a + b);
  assign z = lock_key[5 +: 2] ^ b[1:0];
endmodule
"""

#: Bit 0's mux picks ``a + b`` or ``(a | b) + (a & b)``, equal on every
#: lane: a flip of bit 0 changes ``t`` nowhere.
EQUAL_BRANCHES = """
module equal (input [7:0] a, input [7:0] b, input [1:0] lock_key,
              output [7:0] x, output [7:0] y);
  wire [7:0] t;
  assign t = lock_key[0] ? (a + b) : ((a | b) + (a & b));
  assign x = t ^ a;
  assign y = lock_key[1] ? (a - b) : (a * b);
endmodule
"""

#: ``a + b`` and ``a - b`` share bit 0, so a flip of key bit 0 changes
#: ``t`` but not ``m``: it is masked before ``x`` and reaches ``y``.
MASKED = """
module masked (input [7:0] a, input [7:0] b, input [1:0] lock_key,
               output [7:0] x, output [7:0] y);
  wire [7:0] t;
  wire [7:0] m;
  assign t = lock_key[0] ? (a + b) : (a - b);
  assign m = {7'd0, t[0]};
  assign x = m + b;
  assign y = lock_key[1] ? (t ^ a) : (t | a);
endmodule
"""

#: ``u`` reads key bit 1 only, downstream of bit 0's ``t``; ``v`` reads
#: key bit 2 only, beside it.
OTHER_BITS = """
module other (input [7:0] a, input [7:0] b, input [2:0] lock_key,
              output [7:0] x);
  wire [7:0] t;
  wire [7:0] u;
  wire [7:0] v;
  assign t = lock_key[0] ? (a + b) : (a ^ b);
  assign u = lock_key[1] ? (t + a) : (t - a);
  assign v = lock_key[2] ? (a & b) : (a | b);
  assign x = u ^ v;
endmodule
"""

#: One step reads key bit 0 in two muxes (a bit- and a part-select, so
#: CSE leaves both in ``x``).
TWO_MUXES = """
module twice (input [7:0] a, input [7:0] b, input [1:0] lock_key,
              output [7:0] x, output [7:0] y);
  assign x = (lock_key[0] ? a : b) - (lock_key[0:0] ? b : a);
  assign y = lock_key[1] ? (x + a) : (x & b);
endmodule
"""

#: Per custom design, the key bits each assignment reads directly.
KEY_READS = {
    "whole": (WHOLE_KEY, {"x": {0, 1, 2}, "y": {1}}),
    "dynamic": (DYNAMIC_KEY, {"x": {0, 1, 2, 3}, "y": {2}}),
    "part": (PART_KEY, {"x": {1, 2, 3}, "y": {0}, "z": {5, 6}}),
    "equal": (EQUAL_BRANCHES, {"t": {0}, "x": set(), "y": {1}}),
    "masked": (MASKED, {"t": {0}, "m": set(), "x": set(), "y": {1}}),
    "other": (OTHER_BITS, {"t": {0}, "u": {1}, "v": {2}, "x": set()}),
    "twice": (TWO_MUXES, {"x": {0}, "y": {1}}),
}


def _custom_locked(name):
    source, _ = KEY_READS[name]
    design = Design.from_verilog(source)
    design.key_port = "lock_key"
    width = BatchSimulator(design).width_of("lock_key")
    design.key_bits = [KeyBit(index=index, kind="operation",
                              correct_value=index % 2)
                       for index in range(width)]
    return design


def _locked_by(algorithm, seed=0, scale=0.15):
    design = load_benchmark("MD5", scale=scale, seed=seed)
    budget = max(1, int(0.75 * design.num_operations()))
    rng = random.Random(seed)
    locker = {"era": lambda: ERALocker(rng=rng, track_metrics=False),
              "assure": lambda: AssureLocker("serial", rng=rng,
                                             track_metrics=False),
              "hra": lambda: HRALocker(rng=rng, track_metrics=False)}
    return locker[algorithm]().lock(design, budget).design


def _cone_design(name):
    return _custom_locked(name) if name in KEY_READS else _locked_by(name)


#: Cone-path cases held as data: (id, design, V, point-0 key, flips,
#: tiled?).  ``flips`` lists the key bits each later point flips against
#: point 0 (``()``: a point equal to point 0); ``"each"`` is every single
#: bit, then a point equal to point 0.  Every case but the two-bit flip
#: must take the cone path and run no tile.
CONE_CASES = [
    ("era-v1", "era", 1, "zero", "each", False),
    ("assure-v5", "assure", 5, "correct", "each", False),
    ("hra-v16", "hra", 16, "random", "each", False),
    ("era-v2047", "era", 2047, "correct", [(4,), (4,)], False),
    ("whole-key-v16", "whole", 16, "random", "each", False),
    ("dynamic-index-v5", "dynamic", 5, "correct", "each", False),
    ("part-select-v2047", "part", 2047, "random", "each", False),
    ("two-bit-flip-v16", "era", 16, "correct", [(4,), (6, 7), ()], True),
]


#: Cone work held as data: (id, design, flipped key bit, the targets of the
#: cone steps the flip runs, in order, and whether nothing differs).  Each
#: row flips one bit of a random point-0 key over 64 lanes.
CONE_WORK_CASES = [
    # t recomputes its base value, so x never runs.
    ("equal-branches", "equal", 0, ["t"], True),
    # m recomputes its base value, so x never runs; y differs.
    ("masked-before-x", "masked", 0, ["t", "m", "y"], False),
    # u reads only key bit 1 and runs because t changed; v is not in the
    # cone of bit 0, and flipping bit 2 runs v and x only.
    ("downstream-reads-other-bits", "other", 0, ["t", "u", "x"], False),
    ("beside-reads-other-bits", "other", 2, ["v", "x"], False),
    # x reads bit 0 twice and runs once.
    ("one-step-two-muxes", "twice", 0, ["x", "y"], False),
]

#: Lanes of every cone-work row.
CONE_WORK_LANES = 64


def run_cone_case(design, base, point0, flips, tiled):
    """Counts of one single-flip sweep equal the tiles' and the scalar
    engine's; ``tiled`` says whether the sweep may run tiles."""
    simulator = BatchSimulator(design)
    rng = random.Random(base)
    width = design.key_width
    key0 = {"zero": [0] * width, "correct": design.correct_key,
            "random": random_key(width, rng)}[point0]
    if flips == "each":
        flips = [(bit,) for bit in range(width)] + [()]
    keys = [key0] + [flip_bits(key0, list(bits)) for bits in flips]
    batch = random_input_batch(design, rng, base)
    with _recorded_tiles() as tiles:
        counted = simulator.sweep_differences(batch, keys=keys, n=base)
    assert bool(tiles) == tiled
    runs = simulator.run_sweep(batch, keys=keys, n=base)
    assert (counted.lanes, counted.bits) == _expected(runs, base)
    assert counted == CombinationalSimulator(design).sweep_differences(
        batch, keys=keys, n=base)
    for index, bits in enumerate(flips):
        if not bits:
            assert counted.lanes[index] == counted.bits[index] == 0
    return counted


class TestConePath:
    """Single-bit key flips evaluate only the flipped bit's fan-out cone;
    the counts stay those of the tiles and of the scalar engine."""

    @pytest.mark.parametrize("design,base,point0,flips,tiled",
                             [case[1:] for case in CONE_CASES],
                             ids=[case[0] for case in CONE_CASES])
    def test_counts_equal_the_references(self, design, base, point0, flips,
                                         tiled):
        counted = run_cone_case(_cone_design(design), base, point0, flips,
                                tiled)
        assert any(counted.lanes)

    @pytest.mark.parametrize("design,bit,ran,unchanged",
                             [case[1:] for case in CONE_WORK_CASES],
                             ids=[case[0] for case in CONE_WORK_CASES])
    def test_a_flip_runs_only_the_steps_it_changes(self, design, bit, ran,
                                                   unchanged):
        locked = _custom_locked(design)
        counted = run_cone_case(locked, CONE_WORK_LANES, "random", [(bit,)],
                                False)
        assert (counted.lanes == counted.bits == [0]) == unchanged
        simulator = BatchSimulator(locked)
        calls = []
        for step in simulator.plan.steps:
            def recorded(env, full, fn=step.fn, target=step.target):
                calls.append(target)
                return fn(env, full)
            step.fn = recorded
        rng = random.Random(CONE_WORK_LANES)
        key0 = random_key(locked.key_width, rng)
        batch = random_input_batch(locked, rng, CONE_WORK_LANES)
        keys = [key0, flip_bits(key0, [bit])]
        assert simulator.sweep_differences(
            batch, keys=keys, n=CONE_WORK_LANES) == counted
        # The base pass runs every step once; then the flip's cone work.
        steps = simulator.plan.steps
        assert calls[:len(steps)] == [step.target for step in steps]
        assert calls[len(steps):] == ran

    @pytest.mark.parametrize("name", sorted(KEY_READS))
    def test_lowering_records_the_key_bits_read(self, name):
        plan = BatchSimulator(_custom_locked(name)).plan
        _, expected = KEY_READS[name]
        recorded = {step.target: set(step.key_bits) for step in plan.steps
                    if step.target in expected}
        assert recorded == expected

    def test_unread_key_bit_has_an_empty_cone(self):
        plan = BatchSimulator(_custom_locked("part")).plan
        cones = key_cones(plan)
        assert cones.steps[7] == []
        assert [step.target for step in cones.steps[5]] == ["z"]

    def test_wide_base_takes_the_tiles(self):
        # Above the plan's lane cap, V lanes of every value would not fit
        # the lane budget: the sweep keeps the tiles.
        design = _custom_locked("whole")
        simulator = BatchSimulator(design)
        rng = random.Random(7)
        batch = random_input_batch(design, rng, 64)
        keys = [[0, 0, 0], [1, 0, 0], [0, 0, 1]]
        budget = 32 * plan_lane_bits(simulator.plan)
        with mock.patch.object(executor, "DEFAULT_LANE_BITS_BUDGET", budget), \
                _recorded_tiles() as tiles:
            counted = simulator.sweep_differences(batch, keys=keys, n=64)
        assert tiles
        assert counted == simulator.sweep_differences(batch, keys=keys, n=64)

    def test_bindings_take_the_tiles(self):
        # Per-point bindings vary a data input too: no single-bit cone.
        design = _custom_locked("whole")
        simulator = BatchSimulator(design)
        batch = {"b": [value * 37 % 256 for value in range(16)]}
        keys = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        bindings = [{"a": 3}, {"a": 3}, {"a": 200}]
        with _recorded_tiles() as tiles:
            counted = simulator.sweep_differences(batch, keys=keys,
                                                  bindings=bindings, n=16)
        assert tiles
        assert counted == CombinationalSimulator(design).sweep_differences(
            batch, keys=keys, bindings=bindings, n=16)

    def test_cones_are_computed_once_per_plan(self):
        plan = BatchSimulator(_custom_locked("dynamic")).plan
        assert key_cones(plan) is key_cones(plan)

    @pytest.mark.parametrize("algorithm", ["era", "assure", "hra"])
    def test_key_bit_sensitivity_equals_the_tiles(self, algorithm):
        from repro.locking.metrics import key_bit_sensitivity

        design = _locked_by(algorithm)
        vectors = 24
        batch = random_input_batch(design, random.Random(9), vectors)
        zeros = [0] * design.key_width
        keys = [zeros] + [flip_bits(zeros, [bit])
                          for bit in range(design.key_width)]
        runs = BatchSimulator(design).run_sweep(batch, keys=keys, n=vectors)
        lanes, _ = _expected(runs, vectors)
        assert key_bit_sensitivity(design, vectors=vectors,
                                   rng=random.Random(9)) \
            == [count / vectors for count in lanes]


# ---------------------------------------------------------------------------
# Padded point blocks: odd V against references that share no sweep code
# ---------------------------------------------------------------------------

#: ``z`` XORs a key bit into an input bit, so the pad lanes of a block
#: (where the shared inputs are zero) still differ between points under
#: different keys; with ``a`` bound per point, ``x`` differs on them
#: between bindings.  With a shared key, ``y`` and ``z`` are hoisted.
PADDED = """
module padded (input [7:0] a, input [7:0] b, input [2:0] lock_key,
               output [8:0] x, output [7:0] y, output z);
  assign x = lock_key[0] ? (a + b) : (a - b);
  assign y = lock_key[1] ? (b ^ 8'h5a) : (b + 8'd1);
  assign z = lock_key[2] ^ b[0];
endmodule
"""

#: Per-point keys: point ``p`` binds the bits of ``p``, so point 3 flips two
#: bits of point 0's key and the sweep runs the tiles, not the cones.
PADDED_KEYS = [[point >> bit & 1 for bit in range(3)]
               for point in range(POINTS)]

#: Sweep shapes: (id, per-point keys?, ``a`` bound per point?).
PADDED_SHAPES = [("keys", True, False), ("shared-key-bindings", False, True),
                 ("keys-bindings", True, True)]

#: (id, V, per-point keys?, bindings?, lane cap in points): no base width
#: is whole bytes, so every block has pad lanes.
PADDED_CASES = [(f"v{base}-{shape}-cap{cap}", base, keyed, bound, cap)
                for base in (1, 4, 7, 9, 33, 100, 2047)
                for shape, keyed, bound in PADDED_SHAPES
                for cap in LANE_CAPS]


def run_padded_case(base, keyed, bound, lane_cap):
    """``run_sweep`` equals the per-point ``run_batch`` loop and
    ``sweep_differences`` the scalar engine, in tiles of ``lane_cap``
    points."""
    design = Design.from_verilog(PADDED)
    design.key_port = "lock_key"
    design.key_bits = [KeyBit(index=index, kind="operation", correct_value=1)
                       for index in range(3)]
    simulator = BatchSimulator(design)
    rng = random.Random(base)
    keys = PADDED_KEYS if keyed else [design.correct_key] * POINTS
    bindings = [{"a": rng.getrandbits(8)} for _ in range(POINTS)] \
        if bound else None
    batch = {name: [rng.getrandbits(8) for _ in range(base)]
             for name in (("b",) if bound else ("a", "b"))}
    with _point_cap(simulator, base, lane_cap), _recorded_tiles() as tiles:
        runs = simulator.run_sweep(batch, keys=keys, bindings=bindings,
                                   n=base)
        counted = simulator.sweep_differences(batch, keys=keys,
                                              bindings=bindings, n=base)
    assert len(tiles) == 2 * -(-POINTS // (lane_cap or POINTS))
    assert len(runs) == POINTS
    for point, (run, key) in enumerate(zip(runs, keys)):
        point_inputs = dict(batch)
        for name, value in (bindings[point] if bound else {}).items():
            point_inputs[name] = [value] * base
        assert run == simulator.run_batch(point_inputs, key=key, n=base)
    assert counted == CombinationalSimulator(design).sweep_differences(
        batch, keys=keys, bindings=bindings, n=base)
    assert any(counted.lanes)


@pytest.mark.parametrize("base,keyed,bound,lane_cap",
                         [case[1:] for case in PADDED_CASES],
                         ids=[case[0] for case in PADDED_CASES])
def test_padded_blocks_equal_unpadded_references(base, keyed, bound,
                                                 lane_cap):
    run_padded_case(base, keyed, bound, lane_cap)
