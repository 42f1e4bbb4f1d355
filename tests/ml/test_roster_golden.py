"""Golden auto-ML roster: every default candidate is pinned bit for bit.

SnapShot's model is whichever :func:`~repro.ml.automl.default_candidates`
entry wins cross-validation, so a change to any of them (naive Bayes,
trees, forests, boosting, kNN, logistic regression, the MLP) can change a
stored record.  Each candidate is fitted on one fixed training set per
locker, SASC at scale 0.15 relocked for 20 rounds, and pinned three ways:

* the ``predict_proba`` bits on the target's key-bit rows, for the
  candidates that multiply no matrices;
* the predicted labels there, for the candidates that do (kNN's distances,
  logistic regression and the MLP), whose low probability bits follow the
  BLAS kernel;
* every candidate's cross-validation fold accuracies, as
  :class:`~repro.ml.automl.AutoMLClassifier` scores them.

The values were recorded before the ``ml`` package was last edited; a
mismatch means a model changed, not that a value needs refreshing.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

import numpy as np
import pytest

from repro.api import make_locker
from repro.api.scenario import key_budget
from repro.attacks import LocalityExtractor, TrainingSetBuilder
from repro.bench import load_benchmark
from repro.ml import AutoMLClassifier
from repro.ml.automl import _Pipeline, default_candidates

BENCHMARK = "SASC"
SCALE = 0.15
SEED = 1
ROUNDS = 20

#: ``{(locker, candidate): (kind, value)}``: ``("proba", digest)`` is the
#: sha256 prefix of the probabilities' bytes, ``("labels", "0110...")`` the
#: predicted labels.
PREDICTIONS = {
    ("assure", "adaboost_stumps"): ("proba", "480401eedd5b319b"),
    ("assure", "categorical_nb_a01"): ("proba", "4faf77563f83c573"),
    ("assure", "categorical_nb_a1"): ("proba", "123733850da19479"),
    ("assure", "decision_tree_d4"): ("proba", "4f1282084329f506"),
    ("assure", "decision_tree_d8"): ("proba", "09b39d7b60e0d2f4"),
    ("assure", "gaussian_nb"): ("proba", "843063c6540abe79"),
    ("assure", "knn_15"): ("labels", "011000110"),
    ("assure", "knn_5"): ("labels", "001000110"),
    ("assure", "logistic_regression"): ("labels", "011000110"),
    ("assure", "mlp_32x16"): ("labels", "011010111"),
    ("assure", "random_forest_25"): ("proba", "d98c633f2bb0d7aa"),
    ("assure", "random_forest_50"): ("proba", "a40968a1299fcc3b"),
    ("era", "adaboost_stumps"): ("proba", "2a0176f3d6d31ab2"),
    ("era", "categorical_nb_a01"): ("proba", "d22e001263f0724c"),
    ("era", "categorical_nb_a1"): ("proba", "d1393eab2bf88cf4"),
    ("era", "decision_tree_d4"): ("proba", "d326e25aa9ad5261"),
    ("era", "decision_tree_d8"): ("proba", "b8dd4646e329f407"),
    ("era", "gaussian_nb"): ("proba", "9e4e02a0db7efa8d"),
    ("era", "knn_15"): ("labels", "001110100"),
    ("era", "knn_5"): ("labels", "001000100"),
    ("era", "logistic_regression"): ("labels", "101110011"),
    ("era", "mlp_32x16"): ("labels", "101110011"),
    ("era", "random_forest_25"): ("proba", "2bb358daabdfe8d1"),
    ("era", "random_forest_50"): ("proba", "5c4eb71e7204de3f"),
}

#: Rows in each of the five cross-validation folds (180 training rows).
FOLD_ROWS = 36

#: ``{(locker, candidate): correct predictions per fold}``.
CV_CORRECT = {
    ("assure", "adaboost_stumps"): (12, 17, 17, 21, 18),
    ("assure", "categorical_nb_a01"): (16, 14, 20, 16, 20),
    ("assure", "categorical_nb_a1"): (20, 12, 17, 15, 19),
    ("assure", "decision_tree_d4"): (20, 13, 16, 15, 15),
    ("assure", "decision_tree_d8"): (13, 14, 18, 19, 16),
    ("assure", "gaussian_nb"): (19, 21, 18, 19, 16),
    ("assure", "knn_15"): (21, 20, 16, 16, 17),
    ("assure", "knn_5"): (21, 18, 18, 17, 22),
    ("assure", "logistic_regression"): (21, 12, 15, 20, 17),
    ("assure", "mlp_32x16"): (13, 10, 17, 20, 17),
    ("assure", "random_forest_25"): (18, 17, 16, 15, 16),
    ("assure", "random_forest_50"): (18, 15, 19, 19, 13),
    ("era", "adaboost_stumps"): (17, 22, 21, 21, 21),
    ("era", "categorical_nb_a01"): (16, 19, 25, 15, 23),
    ("era", "categorical_nb_a1"): (23, 22, 21, 20, 18),
    ("era", "decision_tree_d4"): (23, 18, 19, 19, 19),
    ("era", "decision_tree_d8"): (18, 15, 20, 25, 22),
    ("era", "gaussian_nb"): (22, 18, 15, 18, 16),
    ("era", "knn_15"): (22, 20, 22, 18, 24),
    ("era", "knn_5"): (22, 19, 19, 23, 22),
    ("era", "logistic_regression"): (20, 20, 21, 18, 21),
    ("era", "mlp_32x16"): (18, 19, 21, 23, 21),
    ("era", "random_forest_25"): (20, 19, 20, 21, 18),
    ("era", "random_forest_50"): (23, 19, 23, 19, 20),
}


@lru_cache(maxsize=None)
def _data(locker: str):
    """(training features, training labels, target key-bit rows)."""
    design = load_benchmark(BENCHMARK, scale=SCALE, seed=SEED)
    budget = key_budget(0.75, BENCHMARK, locker, design.num_operations())
    target = make_locker(locker, rng=random.Random(SEED)).lock(
        design, budget).design
    training = TrainingSetBuilder(rounds=ROUNDS,
                                  rng=random.Random(SEED + 1)).build(target)
    queries, _ = LocalityExtractor().extract_matrix(target)
    return training.features, training.labels, queries


def _candidate(name: str):
    return next(spec for spec in default_candidates(0) if spec.name == name)


def prediction(locker: str, name: str, kind: str) -> str:
    features, labels, queries = _data(locker)
    pipeline = _Pipeline(_candidate(name)).fit(features, labels)
    if kind == "proba":
        payload = np.ascontiguousarray(pipeline.predict_proba(queries))
        return hashlib.sha256(payload.tobytes()).hexdigest()[:16]
    return "".join(str(int(label)) for label in pipeline.predict(queries))


@lru_cache(maxsize=None)
def cv_accuracies(locker: str):
    features, labels, _ = _data(locker)
    model = AutoMLClassifier(time_budget=len(default_candidates(0)),
                             random_state=0).fit(features, labels)
    return {result.spec.name: result.scores for result in model.leaderboard_}


def test_cases_cover_the_whole_roster():
    names = sorted(spec.name for spec in default_candidates(0))
    for table in (PREDICTIONS, CV_CORRECT):
        for locker in ("assure", "era"):
            assert sorted(name for owner, name in table
                          if owner == locker) == names


@pytest.mark.parametrize("case", sorted(PREDICTIONS), ids="-".join)
def test_candidate_predictions_match_golden(case):
    kind, value = PREDICTIONS[case]
    assert prediction(*case, kind) == value


@pytest.mark.parametrize("case", sorted(CV_CORRECT), ids="-".join)
def test_candidate_cv_accuracy_matches_golden(case):
    locker, name = case
    assert cv_accuracies(locker)[name] == [correct / FOLD_ROWS
                                           for correct in CV_CORRECT[case]]
