"""The count-table fits and the distinct-row predictions, against row loops.

``CategoricalNB``, ``DecisionTreeClassifier``, ``RandomForestClassifier``
and ``AdaBoostClassifier`` fit from the (distinct row x class) count table of
a :class:`~repro.ml.base.GroupedRows`, and every row-wise model predicts
each distinct row once.  This module keeps the row loops they replaced as
references: the categorical NB fit that counts every (value, label) pair
over the rows, and the tree that walks every sorted row of a node at every
candidate feature.  Forests and boosting are rebuilt here on that tree,
with their bootstrap and resampling draws over rows.

Each case is a data set plus the models it checks; one helper checks

* the grouping: ``distinct[groups]`` is the data set bit for bit;
* every fitted model against its reference, bit for bit: classes,
  priors and log-probabilities of the NB, every node of every tree
  (feature, threshold, leaf probabilities), forest and boosting weights
  and feature importances;
* ``predict_proba`` on the whole query set against one row at a time;
* the auto-ML cross-validation accuracies against folds fitted by the
  references and scored one row at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np
import pytest

from repro.attacks.snapshot import MAX_TRAINING_SAMPLES
from repro.ml import (AdaBoostClassifier, AutoMLClassifier, CandidateSpec,
                      CategoricalNB, DecisionTreeClassifier, GaussianNB, KFold,
                      RandomForestClassifier)
from repro.ml.base import (GroupedRows, check_features_labels, encode_labels,
                           group_rows)
from repro.ml.tree import _gini, _TreeNode

# ----------------------------------------------------------------- references


def row_loop_categorical_nb(features, labels, alpha: float) -> CategoricalNB:
    """Categorical NB fitted by counting each (value, label) pair over rows."""
    matrix, label_arr = check_features_labels(features, labels)
    model = CategoricalNB(alpha=alpha)
    model.classes_, encoded = encode_labels(label_arr)
    n_classes = len(model.classes_)
    model.n_features_ = matrix.shape[1]
    model.priors_ = np.bincount(encoded, minlength=n_classes) / matrix.shape[0]
    model.categories_, model.log_prob_ = [], []
    for column in range(model.n_features_):
        categories = np.unique(matrix[:, column])
        counts = np.zeros((n_classes, len(categories)))
        for class_code in range(n_classes):
            values = matrix[encoded == class_code, column]
            for position, category in enumerate(categories):
                counts[class_code, position] = np.sum(values == category)
        smoothed = counts + alpha
        probabilities = smoothed / smoothed.sum(axis=1, keepdims=True)
        model.categories_.append(categories)
        model.log_prob_.append(np.log(probabilities))
    return model


class RowLoopTree(DecisionTreeClassifier):
    """The tree grown by walking every sorted row of a node."""

    def fit(self, features, labels) -> "RowLoopTree":
        matrix, label_arr = check_features_labels(features, labels)
        self.classes_, encoded = encode_labels(label_arr)
        self.n_features_ = matrix.shape[1]
        self._rng = np.random.default_rng(self.random_state)
        self.feature_importances_ = np.zeros(self.n_features_)
        self._root = self._grow_rows(matrix, encoded, depth=0)
        total = self.feature_importances_.sum()
        if total > 0:
            self.feature_importances_ = self.feature_importances_ / total
        return self

    def _grow_rows(self, matrix, encoded, depth) -> _TreeNode:
        counts = np.bincount(encoded, minlength=len(self.classes_)).astype(float)
        node = _TreeNode(prediction=counts / counts.sum())
        if (self.max_depth is not None and depth >= self.max_depth) \
                or matrix.shape[0] < self.min_samples_split \
                or np.unique(encoded).size == 1:
            return node
        split = self._best_split_rows(matrix, encoded, counts)
        if split is None:
            return node
        feature, threshold, gain, left_mask = split
        self.feature_importances_[feature] += gain * matrix.shape[0]
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow_rows(matrix[left_mask], encoded[left_mask],
                                    depth + 1)
        node.right = self._grow_rows(matrix[~left_mask], encoded[~left_mask],
                                     depth + 1)
        return node

    def _best_split_rows(self, matrix, encoded, counts):
        n_samples = matrix.shape[0]
        parent_impurity = _gini(counts)
        best = None
        best_gain = 1e-12
        candidate_features = self._rng.permutation(self.n_features_)[
            :self._n_split_features()]
        for feature in candidate_features:
            values = matrix[:, feature]
            order = np.argsort(values, kind="mergesort")
            sorted_values = values[order]
            sorted_labels = encoded[order]
            left_counts = np.zeros_like(counts)
            right_counts = counts.copy()
            for position in range(n_samples - 1):
                label = sorted_labels[position]
                left_counts[label] += 1
                right_counts[label] -= 1
                if sorted_values[position] == sorted_values[position + 1]:
                    continue
                n_left = position + 1
                n_right = n_samples - n_left
                if n_left < self.min_samples_leaf or n_right < self.min_samples_leaf:
                    continue
                impurity = (n_left * _gini(left_counts)
                            + n_right * _gini(right_counts)) / n_samples
                gain = parent_impurity - impurity
                if gain > best_gain:
                    threshold = (sorted_values[position]
                                 + sorted_values[position + 1]) / 2.0
                    best_gain = gain
                    best = (int(feature), float(threshold), float(gain),
                            values <= threshold)
        return best


def row_loop_forest(params: Mapping, features, labels) -> RandomForestClassifier:
    """A forest of row-loop trees on row bootstrap samples."""
    matrix, label_arr = check_features_labels(features, labels)
    forest = RandomForestClassifier(**params)
    forest.classes_, encoded = encode_labels(label_arr)
    forest.n_features_ = matrix.shape[1]
    rng = np.random.default_rng(forest.random_state)
    n_samples = matrix.shape[0]
    forest.estimators_ = []
    for _ in range(forest.n_estimators):
        indices = rng.integers(0, n_samples, size=n_samples)
        tree = RowLoopTree(max_depth=forest.max_depth,
                           min_samples_leaf=forest.min_samples_leaf,
                           max_features=forest.max_features,
                           random_state=int(rng.integers(0, 2 ** 31 - 1)))
        forest.estimators_.append(tree.fit(matrix[indices], encoded[indices]))
    importances = sum(tree.feature_importances_ for tree in forest.estimators_)
    total = importances.sum()
    forest.feature_importances_ = (importances / total if total > 0
                                   else importances)
    return forest


def row_loop_adaboost(params: Mapping, features, labels) -> AdaBoostClassifier:
    """SAMME boosting of row-loop trees on weighted row resamples."""
    matrix, label_arr = check_features_labels(features, labels)
    model = AdaBoostClassifier(**params)
    model.classes_, encoded = encode_labels(label_arr)
    n_classes = len(model.classes_)
    model.n_features_ = matrix.shape[1]
    n_samples = matrix.shape[0]
    rng = np.random.default_rng(model.random_state)
    weights = np.full(n_samples, 1.0 / n_samples)
    model.estimators_, model.estimator_weights_ = [], []
    for _ in range(model.n_estimators):
        indices = rng.choice(n_samples, size=n_samples, replace=True, p=weights)
        learner = RowLoopTree(max_depth=model.max_depth,
                              random_state=int(rng.integers(0, 2 ** 31 - 1)))
        learner.fit(matrix[indices], encoded[indices])
        incorrect = predict_rows(learner, matrix) != encoded
        error = float(np.sum(weights * incorrect))
        if error >= 1.0 - 1.0 / n_classes:
            break
        error = max(error, 1e-12)
        alpha = model.learning_rate * (np.log((1.0 - error) / error)
                                       + np.log(n_classes - 1.0))
        model.estimators_.append(learner)
        model.estimator_weights_.append(float(alpha))
        if error <= 1e-12:
            break
        weights = weights * np.exp(alpha * incorrect)
        weights /= weights.sum()
    if not model.estimators_:
        model.estimators_.append(RowLoopTree(
            max_depth=model.max_depth,
            random_state=model.random_state).fit(matrix, encoded))
        model.estimator_weights_.append(1.0)
    return model


def predict_rows(model, matrix: np.ndarray) -> np.ndarray:
    """``model.predict`` one row at a time."""
    return np.array([model.predict(row[None, :])[0] for row in matrix])


def proba_rows(model, matrix: np.ndarray) -> np.ndarray:
    """``model.predict_proba`` one row at a time."""
    return np.vstack([model.predict_proba(row[None, :]) for row in matrix])


# ---------------------------------------------------------------- comparison


def same_bits(actual, expected) -> bool:
    actual, expected = np.asarray(actual), np.asarray(expected)
    return (actual.shape == expected.shape and actual.dtype == expected.dtype
            and actual.tobytes() == expected.tobytes())


def nodes(tree) -> List[Tuple]:
    """Every node of a fitted tree in preorder."""
    found, stack = [], [tree._root]
    while stack:
        node = stack.pop()
        found.append((node.feature, node.threshold, node.prediction.tobytes()))
        if not node.is_leaf:
            stack.extend((node.right, node.left))
    return found


def assert_same_tree(actual, expected) -> None:
    assert same_bits(actual.classes_, expected.classes_)
    assert nodes(actual) == nodes(expected)
    assert same_bits(actual.feature_importances_, expected.feature_importances_)


def assert_same_model(actual, expected) -> None:
    assert isinstance(expected, type(actual))
    assert same_bits(actual.classes_, expected.classes_)
    if isinstance(actual, CategoricalNB):
        assert same_bits(actual.priors_, expected.priors_)
        for mine, theirs in zip(actual.categories_ + actual.log_prob_,
                                expected.categories_ + expected.log_prob_,
                                strict=True):
            assert same_bits(mine, theirs)
    elif isinstance(actual, DecisionTreeClassifier):
        assert_same_tree(actual, expected)
    elif isinstance(actual, GaussianNB):
        for name in ("theta_", "var_", "priors_"):
            assert same_bits(getattr(actual, name), getattr(expected, name))
    else:
        assert len(actual.estimators_) == len(expected.estimators_)
        for mine, theirs in zip(actual.estimators_, expected.estimators_):
            assert_same_tree(mine, theirs)
        if isinstance(actual, AdaBoostClassifier):
            assert actual.estimator_weights_ == expected.estimator_weights_
        else:
            assert same_bits(actual.feature_importances_,
                             expected.feature_importances_)


# --------------------------------------------------------------------- cases

ALL_MODELS = ("categorical_nb", "gaussian_nb", "tree", "forest", "adaboost")


@dataclass(frozen=True)
class Case:
    """A data set and the models checked on it.

    Attributes:
        rows: Number of rows.
        columns: Number of feature columns drawn.
        values: Distinct integer codes per column (``None``: real-valued).
        pool: When positive, every row is one of this many rows drawn
            first, as in a SnapShot training set.
        priors: Probability of each label.
        rare: Rows (the first ones) relabelled with one extra label.
        copies: Extra columns that copy column 0, so splits tie on gain.
        tree: Extra ``DecisionTreeClassifier`` parameters of the tree and
            forest models.
        models: The models checked.
        facts: What the case must exercise, checked by :func:`check_case`.
    """

    rows: int
    columns: int
    values: Optional[int]
    pool: int = 0
    priors: Tuple[float, ...] = (0.5, 0.5)
    rare: int = 0
    copies: int = 0
    tree: Mapping = field(default_factory=dict)
    models: Tuple[str, ...] = ALL_MODELS
    facts: Mapping = field(default_factory=dict)
    seed: int = 0


CASES: Dict[str, Case] = {
    "ties": Case(rows=240, columns=2, values=3, copies=2, priors=(0.5, 0.5),
                 facts={"distinct_rows": 9}),
    "fold lacks a class": Case(rows=150, columns=2, values=4, rare=1,
                               facts={"fold_lacks_a_class": True}),
    "single distinct row": Case(rows=60, columns=3, values=1,
                                facts={"distinct_rows": 1}),
    "min_samples_leaf 5, max_features sqrt": Case(
        rows=300, columns=6, values=5, priors=(0.3, 0.3, 0.4),
        tree={"min_samples_leaf": 5, "max_features": "sqrt"}),
    "real-valued features": Case(rows=120, columns=3, values=None,
                                 priors=(0.6, 0.4)),
    "bootstrap misses a class": Case(rows=50, columns=2, values=6, rare=2,
                                     facts={"bootstrap_misses_a_class": True}),
    "above MAX_TRAINING_SAMPLES": Case(
        rows=MAX_TRAINING_SAMPLES + 400, columns=2, values=12, pool=10,
        models=("categorical_nb", "gaussian_nb", "tree"),
        facts={"distinct_rows": 10}),
}


@lru_cache(maxsize=None)
def data_set(name: str) -> Tuple[np.ndarray, np.ndarray]:
    case = CASES[name]
    rng = np.random.default_rng(case.seed)
    drawn = case.pool or case.rows
    if case.values is None:
        matrix = rng.normal(size=(drawn, case.columns))
    else:
        matrix = rng.integers(0, case.values,
                              size=(drawn, case.columns)).astype(float)
    if case.pool:
        matrix = matrix[rng.integers(0, case.pool, size=case.rows)]
    matrix = np.hstack([matrix] + [matrix[:, :1]] * case.copies)
    labels = rng.choice(len(case.priors), size=case.rows, p=case.priors)
    labels[:case.rare] = len(case.priors)
    return matrix, labels


def tree_params(case: Case) -> Dict:
    return {"max_depth": 6, "random_state": 3, **case.tree}


def forest_params(case: Case) -> Dict:
    return {"n_estimators": 12, "max_depth": 6, "random_state": 4,
            **case.tree}


ADABOOST_PARAMS = {"n_estimators": 10, "max_depth": 2, "random_state": 5}


def factories(case: Case) -> Dict[str, Tuple[Callable, Callable]]:
    """``{model: (library factory, reference fit(features, labels))}``."""
    return {
        "categorical_nb": (
            lambda: CategoricalNB(alpha=0.1),
            lambda x, y: row_loop_categorical_nb(x, y, alpha=0.1)),
        "gaussian_nb": (GaussianNB, lambda x, y: GaussianNB().fit(x, y)),
        "tree": (
            lambda: DecisionTreeClassifier(**tree_params(case)),
            lambda x, y: RowLoopTree(**tree_params(case)).fit(x, y)),
        "forest": (
            lambda: RandomForestClassifier(**forest_params(case)),
            lambda x, y: row_loop_forest(forest_params(case), x, y)),
        "adaboost": (
            lambda: AdaBoostClassifier(**ADABOOST_PARAMS),
            lambda x, y: row_loop_adaboost(ADABOOST_PARAMS, x, y)),
    }


def reference_cv(reference: Callable, features, labels, rng) -> List[float]:
    """Cross-validation as the auto-ML search scores it, on row loops."""
    scores = []
    for train, test in KFold(n_splits=5, rng=rng).split(len(labels)):
        model = reference(features[train], labels[train])
        scores.append(float(np.mean(labels[test]
                                    == predict_rows(model, features[test]))))
    return scores


def check_case(name: str) -> None:
    case = CASES[name]
    features, labels = data_set(name)
    data = GroupedRows.from_rows(features, labels)
    assert same_bits(data.rows(), features)
    assert same_bits(data.labels(), labels)
    if "distinct_rows" in case.facts:
        assert len(data.distinct) == case.facts["distinct_rows"]

    models = {model: factories(case)[model] for model in case.models}
    unseen = np.full((1, features.shape[1]), 99.0)
    queries = np.vstack([features[:200], unseen, features[:3]])
    for model, (factory, reference) in models.items():
        fitted = factory().fit(features, labels)
        assert_same_model(fitted, reference(features, labels))
        assert same_bits(fitted.predict_proba(queries),
                         proba_rows(fitted, queries)), model

    search = AutoMLClassifier(
        time_budget=len(models), random_state=7,
        candidates=[CandidateSpec(model, factory)
                    for model, (factory, _) in models.items()]
    ).fit(features, labels)
    scores = {result.spec.name: result.scores for result in search.leaderboard_}
    rng = np.random.default_rng(7)
    for model, (_, reference) in models.items():
        assert scores[model] == reference_cv(reference, features, labels,
                                             rng), model

    if case.facts.get("fold_lacks_a_class"):
        folds = KFold(n_splits=5, rng=np.random.default_rng(7)).split(
            len(labels))
        assert any(len(np.unique(labels[train])) < len(data.classes)
                   for train, _ in folds)
    if case.facts.get("bootstrap_misses_a_class"):
        forest = RandomForestClassifier(**forest_params(case)).fit(features,
                                                                   labels)
        assert any(len(tree.classes_) < len(forest.classes_)
                   for tree in forest.estimators_)


@pytest.mark.parametrize("name", sorted(CASES))
def test_table_path_matches_the_row_loops(name):
    check_case(name)


def test_grouping_keeps_every_bit():
    # -0.0 and 0.0 compare equal but differ in their bits, and NaN never
    # compares equal; rows group by their bits.
    matrix = np.array([[0.0, 1.0], [-0.0, 1.0], [np.nan, 2.0], [0.0, 1.0],
                       [np.nan, 2.0], [1.0, 0.0]])
    distinct, inverse = group_rows(matrix)
    assert same_bits(distinct[inverse], matrix)
    assert len(distinct) == 4
    assert inverse[0] == inverse[3] != inverse[1]
    empty, none = group_rows(np.zeros((0, 3)))
    assert empty.shape == (0, 3) and none.shape == (0,)
