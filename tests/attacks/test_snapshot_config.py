"""Tests for SnapShot's fixed settings (training-set cap, relock budget)."""

import random

import numpy as np

from repro.attacks import SnapShotAttack
from repro.attacks.snapshot import MAX_TRAINING_SAMPLES
from repro.locking import AssureLocker
from repro.ml import CategoricalNB, KNeighborsClassifier


class RecordingNB(CategoricalNB):
    """Categorical NB that keeps the rows it was fitted on."""

    def fit(self, features, labels):
        self.seen = (features.copy(), labels.copy())
        return super().fit(features, labels)


def _five_bit_target(mixer_design, rng):
    return AssureLocker("serial", rng=rng).lock(mixer_design, 5).design


class TestTrainingSetCap:
    def test_training_set_over_the_cap_is_subsampled(self, mixer_design, rng):
        target = _five_bit_target(mixer_design, rng)
        rounds = MAX_TRAINING_SAMPLES // 5 + 1
        attack = SnapShotAttack(model=RecordingNB(), rounds=rounds,
                                rng=random.Random(0))
        training = attack.build_training_set(target)
        assert training.size == MAX_TRAINING_SAMPLES + 5
        model = attack.train_model(training)
        # The attack's rng drew the builder's seed, then the subsample's.
        replay = random.Random(0)
        replay.getrandbits(64)
        keep = np.random.default_rng(replay.randrange(2 ** 31)).choice(
            training.size, size=MAX_TRAINING_SAMPLES, replace=False)
        features, labels = model.seen
        assert np.array_equal(features, training.features[keep])
        assert np.array_equal(labels, training.labels[keep])

    def test_training_set_at_the_cap_is_fitted_whole(self, mixer_design, rng):
        target = _five_bit_target(mixer_design, rng)
        attack = SnapShotAttack(model=RecordingNB(),
                                rounds=MAX_TRAINING_SAMPLES // 5,
                                rng=random.Random(0))
        training = attack.build_training_set(target)
        assert training.size == MAX_TRAINING_SAMPLES
        features, labels = attack.train_model(training).seen
        assert np.array_equal(features, training.features)
        assert np.array_equal(labels, training.labels)


class TestRelockBudget:
    def test_relock_budget_is_the_target_key_width(self, mixer_design, rng):
        target = AssureLocker("serial", rng=rng).lock(mixer_design, 6).design
        attack = SnapShotAttack(model=CategoricalNB(), rounds=5,
                                rng=random.Random(2))
        result = attack.attack(target)
        assert result.metadata["relock_budget"] == 6
        assert result.training_size == 30


class TestKnnChunking:
    def test_chunked_prediction_matches_unchunked(self):
        rng = np.random.default_rng(0)
        features = rng.integers(0, 4, size=(600, 3)).astype(float)
        labels = (features[:, 0] > 1).astype(int)
        model = KNeighborsClassifier(n_neighbors=5).fit(features, labels)
        # More query rows than the internal chunk size exercises the chunked
        # code path; results must be identical to a single-shot computation.
        queries = features[:300]
        chunked = model.predict_proba(queries)
        single = model._chunk_proba(queries)
        assert np.allclose(chunked, single)
