"""Unit tests for the cross-validation fold generator."""

import numpy as np
import pytest

from repro.ml import KFold


class TestKFold:
    def test_folds_partition_the_data(self):
        splitter = KFold(n_splits=4, rng=np.random.default_rng(0))
        seen = []
        for train_indices, test_indices in splitter.split(20):
            assert len(np.intersect1d(train_indices, test_indices)) == 0
            assert len(train_indices) + len(test_indices) == 20
            seen.extend(test_indices.tolist())
        assert sorted(seen) == list(range(20))

    def test_number_of_folds(self):
        splitter = KFold(n_splits=5, rng=np.random.default_rng(0))
        assert len(list(splitter.split(50))) == 5

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            list(KFold(n_splits=5).split(3))

    def test_invalid_split_count(self):
        with pytest.raises(ValueError):
            KFold(n_splits=1)

    def test_same_seed_gives_same_folds(self):
        first = [test.tolist() for _, test in
                 KFold(n_splits=3, rng=np.random.default_rng(4)).split(12)]
        second = [test.tolist() for _, test in
                  KFold(n_splits=3, rng=np.random.default_rng(4)).split(12)]
        assert first == second

    def test_sample_order_is_shuffled(self):
        splitter = KFold(n_splits=2, rng=np.random.default_rng(0))
        test_indices = np.concatenate([test for _, test in splitter.split(40)])
        assert test_indices.tolist() != list(range(40))

    @pytest.mark.parametrize("n_samples", [10, 11, 13])
    def test_fold_sizes_differ_by_at_most_one(self, n_samples):
        splitter = KFold(n_splits=4, rng=np.random.default_rng(0))
        sizes = [len(test) for _, test in splitter.split(n_samples)]
        assert sum(sizes) == n_samples
        assert max(sizes) - min(sizes) <= 1
