"""From-scratch ML substrate (the auto-sklearn substitute of the paper).

Classifiers follow a scikit-learn-like ``fit``/``predict``/``predict_proba``
interface (:class:`~repro.ml.base.Estimator`), and
:class:`~repro.ml.automl.AutoMLClassifier` performs budgeted model selection
over them — this is the model the RTL SnapShot attack trains on the extracted
localities.
"""

from .automl import AutoMLClassifier, CandidateResult, CandidateSpec, default_candidates
from .base import (
    Estimator,
    NotFittedError,
    check_features,
    check_features_labels,
    encode_labels,
    one_hot,
    softmax,
)
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

__all__ = [
    "AutoMLClassifier",
    "CandidateResult",
    "CandidateSpec",
    "default_candidates",
    "Estimator",
    "NotFittedError",
    "check_features",
    "check_features_labels",
    "encode_labels",
    "one_hot",
    "softmax",
    "AdaBoostClassifier",
    "RandomForestClassifier",
    "KNeighborsClassifier",
    "LogisticRegression",
    "accuracy",
    "MLPClassifier",
    "CategoricalNB",
    "GaussianNB",
    "OneHotEncoder",
    "StandardScaler",
    "DecisionTreeClassifier",
    "KFold",
]
