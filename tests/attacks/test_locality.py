"""Unit tests for SnapShot locality extraction."""

import random

import numpy as np
import pytest

from repro.api import locker_names, make_locker
from repro.api.scenario import key_budget
from repro.attacks import LocalityExtractor
from repro.attacks.locality import _feature_row, _key_controlled_nodes
from repro.bench import benchmark_names, load_benchmark
from repro.locking import AssureLocker, LockingSession
from repro.rtlir import Design, KeyBit, encode_operator
from repro.rtlir.operations import NO_OPERATION
from repro.verilog import parse

#: ``(kind, Verilog)`` of key bits no locker writes but a key file may name:
#: key bit 0 of port ``k`` XOR-ed into a branch condition, standing in for
#: a literal, or selecting a ternary of two operations.  Each reads as
#: ``NO_OPERATION`` twice, whatever the bit drives.
NON_OPERATION_BITS = [
    ("branch", "module b (input clk, input [7:0] a, input [0:0] k, "
               "output reg y); always @(posedge clk) "
               "if ((a > 8'd1) ^ k[0]) y <= 1; else y <= 0; endmodule"),
    ("constant", "module c (input [3:0] a, input [0:0] k, output [3:0] y); "
                 "assign y = a + k[0]; endmodule"),
    ("branch", "module t (input [3:0] a, input [3:0] b, input [0:0] k, "
               "output [3:0] y); assign y = k[0] ? a + b : a - b; endmodule"),
    ("constant", "module u (input [3:0] a, input [3:0] b, input [0:0] k, "
                 "output [3:0] y); assign y = k[0] ? a * b : a / b; "
                 "endmodule"),
]


#: ``(name, assignments, {key bit: (C1, C2) operators})`` of hand-written
#: nested key muxes on key port ``k``.  A branch that is itself a key mux
#: reads as its true branch, down to the first operation; a key bit whose
#: ternary occurs twice keeps its last occurrence in pre-order.
NESTED_MUXES = [
    ("nest-in-true-branch",
     "assign y = k[0] ? (k[1] ? a ^ b : a ~^ b) : a + b;",
     {0: ("^", "+"), 1: ("^", "~^")}),
    ("nest-in-false-branch",
     "assign y = k[0] ? a + b : (k[1] ? a - b : a * b);",
     {0: ("+", "-"), 1: ("-", "*")}),
    ("double-nest",
     "assign y = k[0] ? (k[1] ? (k[2] ? a & b : a | b) : a ^ b) : a + b;",
     {0: ("&", "+"), 1: ("&", "^"), 2: ("&", "|")}),
    ("ternary-occurs-twice",
     "assign y = k[0] ? a + b : a - b; assign z = k[0] ? a & b : a | b;",
     {0: ("&", "|")}),
]


class TestExtraction:
    def test_unlocked_design_rejected(self, mixer_design):
        with pytest.raises(ValueError):
            LocalityExtractor().extract_matrix(mixer_design)

    def test_one_locality_per_key_bit(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 5).design
        extractor = LocalityExtractor()
        features, labels = extractor.extract_matrix(locked)
        assert features.shape == (5, 2)
        # Row i is key bit i's locality.
        for index in range(5):
            row, label = extractor.extract_matrix(locked, key_indices=[index])
            assert np.array_equal(row, features[index:index + 1])
            assert label.tolist() == [labels[index]]

    def test_pair_features_encode_branch_operators(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        ref = session.ops_of_type("*")[0]
        session.add_pair(ref, correct_value=1)
        (row,), (label,) = LocalityExtractor().extract_matrix(mixer_design)
        assert label == 1
        assert row[0] == encode_operator("*")
        assert row[1] == encode_operator("/")

    def test_false_branch_real_operation(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        ref = session.ops_of_type("*")[0]
        session.add_pair(ref, correct_value=0)
        (row,), (label,) = LocalityExtractor().extract_matrix(mixer_design)
        assert label == 0
        assert row[0] == encode_operator("/")
        assert row[1] == encode_operator("*")

    def test_extract_specific_indices(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 6).design
        extractor = LocalityExtractor()
        features, labels = extractor.extract_matrix(locked)
        subset, subset_labels = extractor.extract_matrix(locked,
                                                         key_indices=[2, 4])
        assert np.array_equal(subset, features[[2, 4]])
        assert np.array_equal(subset_labels, labels[[2, 4]])

    def test_matrix_shape_and_labels(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        features, labels = LocalityExtractor().extract_matrix(locked)
        assert features.shape == (4, 2)
        assert labels.tolist() == locked.correct_key

    def test_empty_matrix(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        features, labels = LocalityExtractor().extract_matrix(locked,
                                                              key_indices=[])
        assert features.shape == (0, 2)
        assert features.dtype == np.float64
        assert labels.shape == (0,)
        assert labels.dtype == np.dtype(int)


class TestNestedAndNonOperationBits:
    def test_relocked_pair_resolves_nested_branch(self, plus_chain_design):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, 4)
        second = AssureLocker("random", rng=random.Random(1)).lock(
            first.design, 4)
        features, _ = LocalityExtractor().extract_matrix(second.design)
        assert len(features) == 8
        codes = {encode_operator("+"), encode_operator("-")}
        assert set(features.astype(int).ravel()) <= codes

    @pytest.mark.parametrize("kind,source", NON_OPERATION_BITS,
                             ids=[f"{kind}-{index}" for index, (kind, _)
                                  in enumerate(NON_OPERATION_BITS)])
    def test_non_operation_bit_has_no_pair_features(self, kind, source):
        design = Design(parse(source), key_port="k",
                        key_bits=[KeyBit(index=0, kind=kind, correct_value=1)])
        features, labels = LocalityExtractor().extract_matrix(design)
        assert labels.tolist() == [1]
        assert features.tolist() == [[NO_OPERATION, NO_OPERATION]]

    @pytest.mark.parametrize("assignments,expected",
                             [case[1:] for case in NESTED_MUXES],
                             ids=[case[0] for case in NESTED_MUXES])
    def test_nested_mux_rows(self, assignments, expected):
        source = ("module n (input [3:0] a, input [3:0] b, input [2:0] k, "
                  f"output [3:0] y, output [3:0] z); {assignments} endmodule")
        design = Design(parse(source), key_port="k",
                        key_bits=[KeyBit(index=index, kind="operation",
                                         correct_value=0)
                                  for index in sorted(expected)])
        features, _ = LocalityExtractor().extract_matrix(design)
        rows = {index: tuple(row.astype(int))
                for index, row in zip(sorted(expected), features)}
        assert rows == {index: (encode_operator(c1), encode_operator(c2))
                        for index, (c1, c2) in expected.items()}


def per_bit_matrix(design, key_indices=None):
    """``extract_matrix`` as the per-key-bit path built it.

    One float array per selected key bit, sorted by index and stacked with
    ``np.vstack``; an empty selection gives empty arrays of the same
    shapes.
    """
    wanted = set(key_indices) if key_indices is not None else None
    pairs = _key_controlled_nodes(design)
    bits = sorted((bit for bit in design.key_bits
                   if wanted is None or bit.index in wanted),
                  key=lambda bit: bit.index)
    if not bits:
        return np.zeros((0, 2)), np.zeros((0,), dtype=int)
    features = np.vstack([np.array(_feature_row(bit, pairs), dtype=float)
                          for bit in bits])
    return features, np.array([bit.correct_value for bit in bits], dtype=int)


#: ``name: key indices`` of the selections checked on each locked design.
SELECTIONS = {
    "all": lambda indices: None,
    "subset": lambda indices: indices[::2],
    "unsorted-subset": lambda indices: indices[::-3],
    "empty": lambda indices: [],
}


@pytest.mark.parametrize("name", benchmark_names())
def test_extract_matrix_matches_the_per_bit_path(name):
    extractor = LocalityExtractor()
    for locker in locker_names():
        design = load_benchmark(name, scale=0.1, seed=2)
        budget = key_budget(0.5, name, locker, design.num_operations())
        locked = make_locker(locker, random.Random(2)).lock(design,
                                                            budget).design
        indices = [bit.index for bit in locked.key_bits]
        for selection, select in SELECTIONS.items():
            case = (name, locker, selection)
            features, labels = extractor.extract_matrix(
                locked, key_indices=select(indices))
            expected, expected_labels = per_bit_matrix(locked,
                                                       select(indices))
            assert features.dtype == expected.dtype, case
            assert features.shape == expected.shape, case
            assert features.tobytes() == expected.tobytes(), case
            assert labels.dtype == expected_labels.dtype, case
            assert np.array_equal(labels, expected_labels), case
