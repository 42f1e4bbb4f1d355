"""Unit tests for SnapShot locality extraction."""

import random

import pytest

from repro.attacks import LocalityExtractor
from repro.locking import AssureLocker, LockingSession
from repro.rtlir import Design, encode_operator


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

    def test_branch_locking_bit_has_no_pair_features(self, mixer_design, rng):
        locker = AssureLocker(rng=rng)
        locked = locker.lock_branches(mixer_design, max_branches=1).design
        locality = LocalityExtractor().extract(locked)[0]
        assert locality.kind == "branch"
        assert locality.features.tolist() == [0.0, 0.0]

    def test_constant_locking_bits_have_no_pair_features(self, rng):
        design = Design.from_verilog(
            "module c (input [3:0] a, output [3:0] y); assign y = a + 4'd5; endmodule")
        locker = AssureLocker(rng=rng)
        locked = locker.lock_constants(design, max_constants=1).design
        localities = LocalityExtractor().extract(locked)
        assert len(localities) == 4
        assert all(loc.kind == "constant" for loc in localities)
        assert all(loc.features.tolist() == [0.0, 0.0] for loc in localities)
