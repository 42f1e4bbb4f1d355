"""Unit tests for the budgeted auto-ML search."""

import logging

import numpy as np
import pytest

from repro.ml import AutoMLClassifier, CandidateSpec, DecisionTreeClassifier, accuracy
from repro.ml.automl import default_candidates
from repro.ml.base import NotFittedError


@pytest.fixture
def categorical_dataset():
    rng = np.random.default_rng(0)
    features = rng.integers(1, 6, size=(300, 2)).astype(float)
    labels = (features[:, 0] == 1).astype(int)
    return features, labels


class TestSearch:
    def test_fit_selects_a_model_and_predicts(self, categorical_dataset):
        features, labels = categorical_dataset
        model = AutoMLClassifier(time_budget=5.0, random_state=0)
        model.fit(features, labels)
        assert model.best_model_name
        predictions = model.predict(features)
        assert accuracy(labels, predictions) > 0.9
        probabilities = model.predict_proba(features[:5])
        assert probabilities.shape == (5, 2)

    def test_leaderboard_sorted_best_first(self, categorical_dataset):
        features, labels = categorical_dataset
        model = AutoMLClassifier(time_budget=5.0, random_state=0)
        model.fit(features, labels)
        board = model.leaderboard_summary()
        assert len(board) >= 2
        scores = [entry["mean_cv_accuracy"] for entry in board]
        assert scores == sorted(scores, reverse=True)
        # The winner follows a one-standard-error rule: its score is within
        # one standard error of the top of the leaderboard.
        winner = next(e for e in board if e["name"] == model.best_model_name)
        best_scores = model.leaderboard_[0].scores
        import numpy as np
        tolerance = float(np.std(best_scores)) / max(np.sqrt(len(best_scores)), 1)
        assert winner["mean_cv_accuracy"] >= scores[0] - tolerance - 1e-9

    def test_tiny_time_budget_still_evaluates_one_candidate(self, categorical_dataset):
        features, labels = categorical_dataset
        model = AutoMLClassifier(time_budget=1e-3, random_state=0)
        model.fit(features, labels)
        assert len(model.leaderboard_) == 1

    def test_budget_maps_to_candidate_count(self, categorical_dataset):
        features, labels = categorical_dataset
        model = AutoMLClassifier(time_budget=3.0, random_state=0)
        model.fit(features, labels)
        # Exactly the first three roster candidates were evaluated — no
        # wall-clock truncation, no machine dependence.
        assert len(model.leaderboard_) == 3
        roster_names = [spec.name for spec in default_candidates(0)[:3]]
        assert sorted(r.spec.name for r in model.leaderboard_) == \
            sorted(roster_names)

    def test_budget_beyond_the_roster_evaluates_it_all(self,
                                                       categorical_dataset):
        features, labels = categorical_dataset
        roster = [CandidateSpec(f"tree_d{depth}",
                                lambda depth=depth: DecisionTreeClassifier(
                                    max_depth=depth))
                  for depth in (2, 3)]
        model = AutoMLClassifier(time_budget=30.0, candidates=roster,
                                 random_state=0)
        model.fit(features, labels)
        assert len(model.leaderboard_) == 2

    def test_repeated_fits_pick_the_same_winner(self, categorical_dataset):
        features, labels = categorical_dataset
        winners = set()
        for _ in range(3):
            model = AutoMLClassifier(time_budget=4.0, random_state=3)
            model.fit(features, labels)
            winners.add(model.best_model_name)
        assert len(winners) == 1

    def test_custom_candidate_roster(self, categorical_dataset):
        features, labels = categorical_dataset
        roster = [CandidateSpec("only_tree",
                                lambda: DecisionTreeClassifier(max_depth=3))]
        model = AutoMLClassifier(time_budget=5.0, candidates=roster)
        model.fit(features, labels)
        assert model.best_model_name == "only_tree"

    def test_raising_candidate_is_dropped_with_a_warning(self, categorical_dataset,
                                                         caplog):
        features, labels = categorical_dataset

        class BrokenTree(DecisionTreeClassifier):
            # The tree's one fit path; ``fit`` reaches it too.
            def fit_grouped(self, data):
                raise FloatingPointError("diverged")

        roster = [CandidateSpec("broken_tree", BrokenTree),
                  CandidateSpec("only_tree",
                                lambda: DecisionTreeClassifier(max_depth=3))]
        model = AutoMLClassifier(time_budget=5.0, candidates=roster,
                                 random_state=0)
        with caplog.at_level(logging.WARNING, logger="repro.ml.automl"):
            model.fit(features, labels)
        assert [r.spec.name for r in model.leaderboard_] == ["only_tree"]
        warnings = [record.getMessage() for record in caplog.records
                    if record.name == "repro.ml.automl"]
        assert len(warnings) == 1
        assert "broken_tree" in warnings[0]
        assert "FloatingPointError" in warnings[0]

    def test_invalid_time_budget(self):
        with pytest.raises(ValueError):
            AutoMLClassifier(time_budget=0.0)

    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            AutoMLClassifier().predict([[1.0, 2.0]])

    def test_tiny_training_set_does_not_crash(self):
        model = AutoMLClassifier(time_budget=2.0, random_state=0)
        model.fit([[1.0, 2.0], [2.0, 1.0]], [0, 1])
        assert model.predict([[1.0, 2.0]]).shape == (1,)

    def test_clone_preserves_configuration(self):
        roster = default_candidates(7)[:4]
        model = AutoMLClassifier(time_budget=3.0, candidates=roster,
                                 random_state=7)
        clone = model.clone()
        assert clone.time_budget == 3.0
        assert [spec.name for spec in clone.candidates] == \
            [spec.name for spec in roster]
        assert clone.random_state == 7


class TestDeterministicMode:
    """Edge cases of the candidate-count budget, the search's only rule."""

    def test_tiny_budget_still_evaluates_one_candidate(self, categorical_dataset):
        features, labels = categorical_dataset
        # A budget under one half rounds to zero candidates; the search
        # still evaluates the cheapest roster candidate, which then wins.
        model = AutoMLClassifier(time_budget=0.4, random_state=0)
        model.fit(features, labels)
        cheapest = default_candidates(0)[0].name
        assert [r.spec.name for r in model.leaderboard_] == [cheapest]
        assert model.best_model_name == cheapest


class TestDefaultRoster:
    def test_roster_covers_multiple_model_families(self):
        names = [spec.name for spec in default_candidates()]
        assert len(names) == len(set(names))
        families = {"nb": any("nb" in n for n in names),
                    "tree": any("tree" in n for n in names),
                    "forest": any("forest" in n for n in names),
                    "knn": any("knn" in n for n in names),
                    "linear": any("logistic" in n for n in names),
                    "mlp": any("mlp" in n for n in names)}
        assert all(families.values())

