"""Budgeted automatic model selection (the auto-sklearn substitute).

The paper's SnapShot adaptation feeds the extracted localities to
auto-sklearn, which searches model families and hyper-parameters for a fixed
time budget (600 s per attack iteration).  :class:`AutoMLClassifier`
reproduces that behaviour on top of the from-scratch estimators of this
package: it evaluates the first ``time_budget`` candidate configurations of
a cheapest-first roster with k-fold cross-validation and refits the best
candidate on the full training set.  The budget counts candidates, not
seconds, so the search result is a pure function of the data and the seed.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .base import Estimator, check_features, check_features_labels
from .boosting import AdaBoostClassifier
from .forest import RandomForestClassifier
from .knn import KNeighborsClassifier
from .logistic import LogisticRegression
from .metrics import accuracy
from .mlp import MLPClassifier
from .naive_bayes import CategoricalNB, GaussianNB
from .preprocessing import OneHotEncoder, StandardScaler
from .tree import DecisionTreeClassifier
from .validation import KFold

_log = logging.getLogger(__name__)


@dataclass
class CandidateSpec:
    """One model configuration the auto-ML search may evaluate.

    Attributes:
        name: Human-readable identifier (appears in the leaderboard).
        factory: Zero-argument callable building a fresh estimator.
        one_hot: Expand categorical feature codes into one-hot indicators.
        standardize: Standard-scale the (possibly expanded) features.
    """

    name: str
    factory: Callable[[], Estimator]
    one_hot: bool = False
    standardize: bool = False


@dataclass
class CandidateResult:
    """Cross-validation outcome of one candidate."""

    spec: CandidateSpec
    mean_score: float
    scores: List[float] = field(default_factory=list)
    fit_seconds: float = 0.0


def default_candidates(random_state: Optional[int] = None) -> List[CandidateSpec]:
    """The default search roster (model family x hyper-parameter grid)."""
    seed = random_state
    return [
        CandidateSpec("categorical_nb_a1", lambda: CategoricalNB(alpha=1.0)),
        CandidateSpec("categorical_nb_a01", lambda: CategoricalNB(alpha=0.1)),
        CandidateSpec("gaussian_nb", lambda: GaussianNB()),
        CandidateSpec("decision_tree_d4",
                      lambda: DecisionTreeClassifier(max_depth=4, random_state=seed)),
        CandidateSpec("decision_tree_d8",
                      lambda: DecisionTreeClassifier(max_depth=8, random_state=seed)),
        CandidateSpec("random_forest_25",
                      lambda: RandomForestClassifier(n_estimators=25, max_depth=8,
                                                     random_state=seed)),
        CandidateSpec("random_forest_50",
                      lambda: RandomForestClassifier(n_estimators=50, max_depth=12,
                                                     random_state=seed)),
        CandidateSpec("adaboost_stumps",
                      lambda: AdaBoostClassifier(n_estimators=40, max_depth=2,
                                                 random_state=seed)),
        CandidateSpec("knn_5", lambda: KNeighborsClassifier(n_neighbors=5),
                      one_hot=True),
        CandidateSpec("knn_15",
                      lambda: KNeighborsClassifier(n_neighbors=15, weights="distance"),
                      one_hot=True),
        CandidateSpec("logistic_regression",
                      lambda: LogisticRegression(n_iterations=300, random_state=seed),
                      one_hot=True, standardize=True),
        CandidateSpec("mlp_32x16",
                      lambda: MLPClassifier(hidden_layers=(32, 16), n_epochs=100,
                                            random_state=seed),
                      one_hot=True, standardize=True),
    ]


class _Pipeline:
    """Minimal preprocessing + estimator pipeline."""

    def __init__(self, spec: CandidateSpec) -> None:
        self.spec = spec
        self.encoder = OneHotEncoder() if spec.one_hot else None
        self.scaler = StandardScaler() if spec.standardize else None
        self.model = spec.factory()

    def _prepare_fit(self, features: np.ndarray) -> np.ndarray:
        matrix = features
        if self.encoder is not None:
            matrix = self.encoder.fit_transform(matrix)
        if self.scaler is not None:
            matrix = self.scaler.fit_transform(matrix)
        return matrix

    def _prepare_predict(self, features: np.ndarray) -> np.ndarray:
        matrix = features
        if self.encoder is not None:
            matrix = self.encoder.transform(matrix)
        if self.scaler is not None:
            matrix = self.scaler.transform(matrix)
        return matrix

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "_Pipeline":
        self.model.fit(self._prepare_fit(features), labels)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.model.predict(self._prepare_predict(features))

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self.model.predict_proba(self._prepare_predict(features))


class AutoMLClassifier(Estimator):
    """Budgeted model search with cross-validation.

    Args:
        time_budget: Search budget in roster candidates: the first
            ``max(1, round(time_budget))`` candidates are evaluated, with no
            wall-clock deadline.  The roster is ordered cheapest-first, so
            the cost still scales with the budget, while the result is
            independent of machine speed and CPU contention.  A tiny budget
            degrades to "first candidate wins" rather than failing.
        n_splits: Cross-validation folds per candidate.
        candidates: Candidate roster; defaults to :func:`default_candidates`.
        random_state: Seed for fold shuffling and candidate tie-breaking.
    """

    def __init__(self, time_budget: float = 10.0, n_splits: int = 5,
                 candidates: Optional[Sequence[CandidateSpec]] = None,
                 random_state: Optional[int] = None) -> None:
        if time_budget <= 0:
            raise ValueError("time_budget must be positive")
        self.time_budget = time_budget
        self.n_splits = n_splits
        self.candidates = list(candidates) if candidates is not None else None
        self.random_state = random_state

    # ---------------------------------------------------------------- fitting

    def fit(self, features, labels) -> "AutoMLClassifier":
        """Search the candidate roster and refit the winner on all data."""
        matrix, label_arr = check_features_labels(features, labels)
        self.classes_ = np.unique(label_arr)
        roster = (self.candidates if self.candidates is not None
                  else default_candidates(self.random_state))
        roster = roster[: max(1, int(round(self.time_budget)))]

        rng = np.random.default_rng(self.random_state)
        self.leaderboard_: List[CandidateResult] = []

        for spec in roster:
            started = time.monotonic()
            scores = self._evaluate(spec, matrix, label_arr, rng)
            elapsed = time.monotonic() - started
            if not scores:
                continue
            self.leaderboard_.append(
                CandidateResult(spec=spec, mean_score=float(np.mean(scores)),
                                scores=[float(s) for s in scores],
                                fit_seconds=elapsed))

        if not self.leaderboard_:
            raise RuntimeError("auto-ML search evaluated no candidate successfully")
        self.best_result_ = self._select_winner(self.leaderboard_)
        self.leaderboard_.sort(key=lambda result: result.mean_score, reverse=True)
        self.best_pipeline_ = _Pipeline(self.best_result_.spec).fit(matrix, label_arr)
        return self

    @staticmethod
    def _select_winner(leaderboard: List[CandidateResult]) -> CandidateResult:
        """Pick the winning candidate with a one-standard-error rule.

        Candidates whose mean CV accuracy is within one standard error of the
        best score are considered statistically indistinguishable; among them
        the one listed earliest in the roster wins.  The roster starts with
        the simplest, most stable models (naive Bayes, shallow trees), so near
        ties resolve towards models that generalise predictably instead of
        high-variance ones that won a fold by luck.
        """
        best = max(leaderboard, key=lambda result: result.mean_score)
        if len(best.scores) > 1:
            std_error = float(np.std(best.scores)) / np.sqrt(len(best.scores))
        else:
            std_error = 0.0
        threshold = best.mean_score - std_error
        for result in leaderboard:  # roster (insertion) order
            if result.mean_score >= threshold:
                return result
        return best

    def _evaluate(self, spec: CandidateSpec, matrix: np.ndarray,
                  labels: np.ndarray, rng: np.random.Generator) -> List[float]:
        n_samples = matrix.shape[0]
        n_splits = min(self.n_splits, n_samples) if n_samples >= 2 else 0
        if n_splits < 2:
            # Too little data to cross-validate: fit on everything and score
            # on the training data (better than failing outright).
            pipeline = _Pipeline(spec).fit(matrix, labels)
            return [accuracy(labels, pipeline.predict(matrix))]
        scores: List[float] = []
        splitter = KFold(n_splits=n_splits, rng=rng)
        for train_indices, test_indices in splitter.split(n_samples):
            pipeline = _Pipeline(spec)
            try:
                pipeline.fit(matrix[train_indices], labels[train_indices])
            except Exception as exc:
                _log.warning("auto-ML candidate %s dropped: a fold fit raised "
                             "%s", spec.name, type(exc).__name__)
                return []
            predictions = pipeline.predict(matrix[test_indices])
            scores.append(accuracy(labels[test_indices], predictions))
        return scores

    # ------------------------------------------------------------- prediction

    def predict(self, features) -> np.ndarray:
        """Predict with the best pipeline found during :meth:`fit`."""
        self._check_fitted("best_pipeline_")
        return self.best_pipeline_.predict(check_features(features))

    def predict_proba(self, features) -> np.ndarray:
        """Class probabilities from the best pipeline."""
        self._check_fitted("best_pipeline_")
        return self.best_pipeline_.predict_proba(check_features(features))

    # -------------------------------------------------------------- reporting

    @property
    def best_model_name(self) -> str:
        """Name of the winning candidate."""
        self._check_fitted("best_result_")
        return self.best_result_.spec.name

    def leaderboard_summary(self) -> List[Dict[str, object]]:
        """Return the leaderboard as a list of dictionaries (best first)."""
        self._check_fitted("leaderboard_")
        return [
            {
                "name": result.spec.name,
                "mean_cv_accuracy": result.mean_score,
                "folds": len(result.scores),
                "seconds": result.fit_seconds,
            }
            for result in self.leaderboard_
        ]
