"""From-scratch machine-learning substrate (no scikit-learn available).

Provides everything the paper's Price Modeling Engine needs: CART
decision trees, Random Forests with OOB score and Gini importances,
Weka-style weighted classification metrics (TP/FP rate, precision,
recall, AUCROC), stratified k-fold cross validation, PCA, feature
encoders/filters, and JSON model serialisation for shipping trees to
YourAdValue clients.
"""

from repro.ml.flat import FlatForest, FlatTree
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.metrics import (
    ClassificationReport,
    accuracy,
    classification_report,
    confusion_matrix,
    mean_squared_error,
    r2_score,
    roc_auc_ovr_weighted,
    root_mean_squared_error,
)
from repro.ml.model_selection import (
    CrossValidationResult,
    cross_validate_classifier,
    stratified_kfold_indices,
    train_test_split,
)
from repro.ml.pca import PCA
from repro.ml.preprocessing import (
    CorrelationFilter,
    FrameEncoder,
    OrdinalEncoder,
    Standardizer,
    VarianceFilter,
)
from repro.ml.serialize import (
    dumps,
    forest_from_dict,
    forest_to_dict,
    loads,
    tree_from_dict,
    tree_to_dict,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "FlatForest",
    "FlatTree",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "ClassificationReport",
    "classification_report",
    "confusion_matrix",
    "accuracy",
    "roc_auc_ovr_weighted",
    "mean_squared_error",
    "root_mean_squared_error",
    "r2_score",
    "CrossValidationResult",
    "cross_validate_classifier",
    "stratified_kfold_indices",
    "train_test_split",
    "PCA",
    "OrdinalEncoder",
    "FrameEncoder",
    "Standardizer",
    "VarianceFilter",
    "CorrelationFilter",
    "tree_to_dict",
    "tree_from_dict",
    "forest_to_dict",
    "forest_from_dict",
    "dumps",
    "loads",
]
