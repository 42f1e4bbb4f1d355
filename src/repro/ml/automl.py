"""Budgeted automatic model selection (the auto-sklearn substitute).

The paper's SnapShot adaptation feeds the extracted localities to
auto-sklearn, which searches model families and hyper-parameters for a fixed
time budget (600 s per attack iteration).  :class:`AutoMLClassifier`
reproduces that behaviour on top of the from-scratch estimators of this
package: it evaluates the first ``time_budget`` candidate configurations of
a cheapest-first roster with k-fold cross-validation and refits the best
candidate on the full training set.  The budget counts candidates, not
seconds, so the search result is a pure function of the data and the seed.

The search groups the training rows once (:class:`~repro.ml.base.GroupedRows`):
a SnapShot training set of thousands of rows holds a handful of distinct
ones.  Every fold and the final refit hand their subset of the groups to
the candidate; the naive Bayes, tree, forest and boosting candidates fit
from its count table, and the others from its rows, bit for bit the rows
of the set.  A row-wise candidate (:attr:`~repro.ml.base.Estimator.row_wise`)
predicts each distinct row of a test fold once, and its accuracy is read
off the fold's count table.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .base import Estimator, GroupedRows, check_features
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
        return self.fit_grouped(GroupedRows.from_rows(features, labels))

    def fit_grouped(self, data: GroupedRows) -> "_Pipeline":
        if self.encoder is None and self.scaler is None:
            self.model.fit_grouped(data)
        else:
            self.model.fit(self._prepare_fit(data.rows()), data.labels())
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.model.predict(self._prepare_predict(features))

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return self.model.predict_proba(self._prepare_predict(features))


def _score(pipeline: _Pipeline, data: GroupedRows) -> float:
    """Accuracy of ``pipeline`` on the rows of ``data``.

    A row-wise model predicts each distinct row once, and its correct
    predictions are read off the count table.  The accuracy is the same
    float either way: an integer count over the number of rows.
    """
    if not pipeline.model.row_wise:
        return accuracy(data.labels(), pipeline.predict(data.rows()))
    predicted = pipeline.predict(data.distinct)
    hits = predicted[:, None] == data.classes[None, :]
    return float(data.counts()[hits].sum() / data.n_samples)


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
        data = GroupedRows.from_rows(features, labels)
        self.classes_ = data.classes
        roster = (self.candidates if self.candidates is not None
                  else default_candidates(self.random_state))
        roster = roster[: max(1, int(round(self.time_budget)))]

        rng = np.random.default_rng(self.random_state)
        self.leaderboard_: List[CandidateResult] = []

        for spec in roster:
            started = time.monotonic()
            scores = self._evaluate(spec, data, rng)
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
        self.best_pipeline_ = _Pipeline(self.best_result_.spec).fit_grouped(data)
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

    def _evaluate(self, spec: CandidateSpec, data: GroupedRows,
                  rng: np.random.Generator) -> List[float]:
        n_samples = data.n_samples
        n_splits = min(self.n_splits, n_samples) if n_samples >= 2 else 0
        if n_splits < 2:
            # Too little data to cross-validate: fit on everything and score
            # on the training data (better than failing outright).
            return [_score(_Pipeline(spec).fit_grouped(data), data)]
        scores: List[float] = []
        splitter = KFold(n_splits=n_splits, rng=rng)
        for train_indices, test_indices in splitter.split(n_samples):
            pipeline = _Pipeline(spec)
            try:
                pipeline.fit_grouped(data.subset(train_indices))
            except Exception as exc:
                _log.warning("auto-ML candidate %s dropped: a fold fit raised "
                             "%s", spec.name, type(exc).__name__)
                return []
            scores.append(_score(pipeline, data.subset(test_indices)))
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
