"""Unit tests for SnapShot locality extraction."""

import random

import pytest

from repro.attacks import LocalityExtractor
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
            LocalityExtractor().extract(mixer_design)

    def test_one_locality_per_key_bit(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 5).design
        localities = LocalityExtractor().extract(locked)
        assert len(localities) == 5
        assert [loc.key_index for loc in localities] == list(range(5))

    def test_pair_features_encode_branch_operators(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        ref = session.ops_of_type("*")[0]
        session.add_pair(ref, correct_value=1)
        locality = LocalityExtractor().extract(mixer_design)[0]
        assert locality.label == 1
        assert locality.features[0] == encode_operator("*")
        assert locality.features[1] == encode_operator("/")

    def test_false_branch_real_operation(self, mixer_design, rng):
        session = LockingSession(mixer_design, rng=rng)
        ref = session.ops_of_type("*")[0]
        session.add_pair(ref, correct_value=0)
        locality = LocalityExtractor().extract(mixer_design)[0]
        assert locality.label == 0
        assert locality.features[0] == encode_operator("/")
        assert locality.features[1] == encode_operator("*")

    def test_extract_specific_indices(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 6).design
        subset = LocalityExtractor().extract(locked, key_indices=[2, 4])
        assert [loc.key_index for loc in subset] == [2, 4]

    def test_matrix_shape_and_labels(self, mixer_design, rng):
        locked = AssureLocker("serial", rng=rng).lock(mixer_design, 4).design
        features, labels = LocalityExtractor().extract_matrix(locked)
        assert features.shape == (4, 2)
        assert labels.tolist() == locked.correct_key

    def test_empty_matrix(self):
        extractor = LocalityExtractor()
        features, labels = extractor.as_matrix([])
        assert features.shape == (0, 2)
        assert labels.shape == (0,)


class TestNestedAndNonOperationBits:
    def test_relocked_pair_resolves_nested_branch(self, plus_chain_design):
        first = AssureLocker("serial", rng=random.Random(0)).lock(
            plus_chain_design, 4)
        second = AssureLocker("random", rng=random.Random(1)).lock(
            first.design, 4)
        localities = LocalityExtractor().extract(second.design)
        assert len(localities) == 8
        codes = {encode_operator("+"), encode_operator("-")}
        for locality in localities:
            assert set(locality.features.astype(int)) <= codes

    @pytest.mark.parametrize("kind,source", NON_OPERATION_BITS,
                             ids=[f"{kind}-{index}" for index, (kind, _)
                                  in enumerate(NON_OPERATION_BITS)])
    def test_non_operation_bit_has_no_pair_features(self, kind, source):
        design = Design(parse(source), key_port="k",
                        key_bits=[KeyBit(index=0, kind=kind, correct_value=1)])
        locality = LocalityExtractor().extract(design)[0]
        assert locality.kind == kind
        assert locality.label == 1
        assert locality.features.tolist() == [NO_OPERATION, NO_OPERATION]

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
        rows = {locality.key_index: tuple(locality.features.astype(int))
                for locality in LocalityExtractor().extract(design)}
        assert rows == {index: (encode_operator(c1), encode_operator(c2))
                        for index, (c1, c2) in expected.items()}
