"""Unit tests shared across all classifiers plus model-specific checks."""

import numpy as np
import pytest

from repro.ml import (
    AdaBoostClassifier,
    CategoricalNB,
    DecisionTreeClassifier,
    GaussianNB,
    KNeighborsClassifier,
    LogisticRegression,
    MLPClassifier,
    RandomForestClassifier,
    accuracy,
)

ALL_CLASSIFIERS = [
    pytest.param(lambda: LogisticRegression(n_iterations=300, random_state=0),
                 id="logistic"),
    pytest.param(lambda: DecisionTreeClassifier(max_depth=6, random_state=0),
                 id="tree"),
    pytest.param(lambda: RandomForestClassifier(n_estimators=15, max_depth=6,
                                                random_state=0), id="forest"),
    pytest.param(lambda: KNeighborsClassifier(n_neighbors=5), id="knn"),
    pytest.param(lambda: GaussianNB(), id="gaussian_nb"),
    pytest.param(lambda: CategoricalNB(), id="categorical_nb"),
    pytest.param(lambda: MLPClassifier(hidden_layers=(16,), n_epochs=60,
                                       random_state=0), id="mlp"),
    pytest.param(lambda: AdaBoostClassifier(n_estimators=20, max_depth=2,
                                            random_state=0), id="adaboost"),
]


def make_separable(n=200, seed=0):
    """Linearly separable two-class problem."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, 2))
    labels = (features[:, 0] + features[:, 1] > 0).astype(int)
    return features, labels


def make_categorical(n=300, seed=0):
    """Categorical problem mimicking locality pairs: label depends on column 0."""
    rng = np.random.default_rng(seed)
    features = rng.integers(1, 5, size=(n, 2)).astype(float)
    labels = (features[:, 0] <= 2).astype(int)
    return features, labels


class TestCommonBehaviour:
    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_learns_separable_data(self, factory):
        model = factory()
        if isinstance(model, CategoricalNB):
            # A categorical model needs discrete features to be meaningful.
            features, labels = make_categorical(n=200)
        else:
            features, labels = make_separable()
        model.fit(features[:150], labels[:150])
        score = accuracy(labels[150:], model.predict(features[150:]))
        assert score >= 0.85

    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_predict_proba_is_a_distribution(self, factory):
        features, labels = make_separable(n=120)
        model = factory().fit(features, labels)
        probabilities = model.predict_proba(features[:10])
        assert probabilities.shape == (10, 2)
        assert np.allclose(probabilities.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probabilities >= 0.0)

    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_predictions_within_label_set(self, factory):
        features, labels = make_categorical(n=150)
        model = factory().fit(features, labels)
        predictions = model.predict(features)
        assert set(np.unique(predictions)) <= set(np.unique(labels))

    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_single_class_training_set(self, factory):
        features = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        labels = np.array([1, 1, 1])
        model = factory().fit(features, labels)
        assert set(model.predict(features)) == {1}

    @pytest.mark.parametrize("factory", ALL_CLASSIFIERS)
    def test_string_labels_supported(self, factory):
        features, labels = make_separable(n=100)
        named = np.where(labels == 1, "one", "zero")
        model = factory().fit(features, named)
        predictions = model.predict(features[:5])
        assert set(predictions) <= {"one", "zero"}


class TestDecisionTree:
    def test_depth_limit_respected(self):
        features, labels = make_separable(n=200)
        tree = DecisionTreeClassifier(max_depth=2).fit(features, labels)
        assert tree.depth() <= 2

    def test_min_samples_leaf(self):
        features, labels = make_separable(n=50)
        tree = DecisionTreeClassifier(min_samples_leaf=20).fit(features, labels)
        # Two leaves of at least 20 of the 50 rows leave no node to split.
        assert tree.depth() <= 1

    def test_feature_importances_sum_to_one(self):
        features, labels = make_separable(n=150)
        tree = DecisionTreeClassifier(max_depth=4).fit(features, labels)
        assert tree.feature_importances_.sum() == pytest.approx(1.0)

    def test_pure_node_stops_growth(self):
        features = np.array([[0.0], [1.0], [2.0], [3.0]])
        labels = np.array([0, 0, 1, 1])
        tree = DecisionTreeClassifier().fit(features, labels)
        assert accuracy(labels, tree.predict(features)) == 1.0


class TestRandomForest:
    def test_more_trees_do_not_hurt(self):
        features, labels = make_separable(n=250, seed=3)
        small = RandomForestClassifier(n_estimators=3, random_state=0).fit(
            features[:200], labels[:200])
        large = RandomForestClassifier(n_estimators=30, random_state=0).fit(
            features[:200], labels[:200])
        small_score = accuracy(labels[200:], small.predict(features[200:]))
        large_score = accuracy(labels[200:], large.predict(features[200:]))
        assert large_score >= small_score - 0.05

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestKNN:
    def test_distance_weighting(self):
        features = np.array([[0.0], [1.0], [10.0]])
        labels = np.array([0, 0, 1])
        model = KNeighborsClassifier(n_neighbors=3, weights="distance").fit(
            features, labels)
        assert model.predict([[9.5]])[0] == 1

    def test_manhattan_metric(self):
        features, labels = make_separable(n=100)
        model = KNeighborsClassifier(metric="manhattan").fit(features, labels)
        assert accuracy(labels, model.predict(features)) > 0.8

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(n_neighbors=0)
        with pytest.raises(ValueError):
            KNeighborsClassifier(metric="cosine")
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="quadratic")


class TestNaiveBayes:
    def test_categorical_nb_matches_conditional_frequencies(self):
        # Feature value 1 -> label 1 (80 %), value 2 -> label 0 (80 %).
        rng = np.random.default_rng(0)
        features = rng.integers(1, 3, size=(400, 1)).astype(float)
        noise = rng.random(400)
        labels = np.where(features[:, 0] == 1, noise < 0.8, noise < 0.2).astype(int)
        model = CategoricalNB().fit(features, labels)
        proba_value1 = model.predict_proba([[1.0]])[0]
        assert proba_value1[list(model.classes_).index(1)] > 0.6

    def test_categorical_nb_unseen_category(self):
        model = CategoricalNB().fit([[1.0], [2.0]], [0, 1])
        probabilities = model.predict_proba([[99.0]])[0]
        assert probabilities == pytest.approx([0.5, 0.5], abs=1e-6)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            CategoricalNB(alpha=0.0)

    @pytest.mark.parametrize("alpha", [1.0, 0.1])  # the auto-ML roster's
    @pytest.mark.parametrize("n_classes", [1, 2, 3])
    def test_categorical_nb_predict_proba_is_bit_identical_to_a_row_loop(
            self, alpha, n_classes):
        rng = np.random.default_rng(100 * n_classes + int(10 * alpha))
        for _ in range(25):
            n_features = int(rng.integers(1, 4))
            features = rng.integers(0, 6, size=(int(rng.integers(1, 40)),
                                                n_features)).astype(float)
            labels = rng.integers(0, n_classes, size=features.shape[0])
            model = CategoricalNB(alpha=alpha).fit(features, labels)
            # Values 0..8: categories 6..8 are never seen in training.
            queries = rng.integers(0, 9, size=(int(rng.integers(0, 30)),
                                               n_features)).astype(float)
            expected = _categorical_nb_row_loop(model, queries)
            actual = model.predict_proba(queries)
            assert actual.shape == expected.shape
            assert np.array_equal(actual.view(np.uint64),
                                  expected.view(np.uint64))

    def test_gaussian_nb_priors(self):
        features, labels = make_separable(n=100)
        model = GaussianNB().fit(features, labels)
        assert model.priors_.sum() == pytest.approx(1.0)


def _categorical_nb_row_loop(model, matrix):
    """``CategoricalNB.predict_proba`` computed one row at a time."""
    n_classes = len(model.classes_)
    log_posterior = np.tile(np.log(model.priors_ + 1e-12), (matrix.shape[0], 1))
    for column in range(model.n_features_):
        categories = model.categories_[column]
        log_prob = model.log_prob_[column]
        fallback = np.log(np.full(n_classes, 1.0 / log_prob.shape[1]))
        for row in range(matrix.shape[0]):
            matches = np.flatnonzero(categories == matrix[row, column])
            if matches.size:
                log_posterior[row] += log_prob[:, matches[0]]
            else:
                log_posterior[row] += fallback
    shifted = log_posterior - log_posterior.max(axis=1, keepdims=True)
    probabilities = np.exp(shifted)
    return probabilities / probabilities.sum(axis=1, keepdims=True)


class TestBoosting:
    def test_boosting_beats_single_stump_on_xor(self):
        rng = np.random.default_rng(1)
        features = rng.integers(0, 2, size=(300, 2)).astype(float)
        labels = (features[:, 0].astype(int) ^ features[:, 1].astype(int))
        stump = DecisionTreeClassifier(max_depth=1).fit(features, labels)
        boosted = AdaBoostClassifier(n_estimators=40, max_depth=2,
                                     random_state=0).fit(features, labels)
        assert accuracy(labels, boosted.predict(features)) >= \
            accuracy(labels, stump.predict(features))

    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            AdaBoostClassifier(n_estimators=0)


class TestLogisticRegressionAndMLP:
    def test_logistic_multiclass(self):
        rng = np.random.default_rng(0)
        features = np.vstack([rng.normal(loc=c, scale=0.3, size=(50, 2))
                              for c in (-2.0, 0.0, 2.0)])
        labels = np.repeat([0, 1, 2], 50)
        model = LogisticRegression(n_iterations=400).fit(features, labels)
        assert accuracy(labels, model.predict(features)) > 0.9

    def test_mlp_learns_xor(self):
        features = np.array([[0, 0], [0, 1], [1, 0], [1, 1]] * 25, dtype=float)
        labels = np.array([0, 1, 1, 0] * 25)
        model = MLPClassifier(hidden_layers=(16, 8), n_epochs=300,
                              learning_rate=0.02, random_state=0)
        model.fit(features, labels)
        assert accuracy(labels, model.predict(features)) >= 0.9
