"""Tests for the classification/regression metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.metrics import (
    accuracy,
    classification_report,
    confusion_matrix,
    mean_squared_error,
    r2_score,
    roc_auc_ovr_weighted,
    root_mean_squared_error,
)


class TestConfusionMatrix:
    def test_known_matrix(self):
        m = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1])
        assert m.tolist() == [[1, 1], [0, 2]]

    def test_n_classes_override(self):
        m = confusion_matrix([0], [0], n_classes=3)
        assert m.shape == (3, 3)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            confusion_matrix([], [])


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_half(self):
        assert accuracy([0, 0, 1, 1], [0, 1, 1, 0]) == 0.5


class TestClassificationReport:
    def test_perfect_predictions(self):
        report = classification_report([0, 1, 2, 0], [0, 1, 2, 0])
        assert report.accuracy == 1.0
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.fp_rate == 0.0

    def test_weighted_averaging(self):
        # Class 0: 3 samples all right; class 1: 1 sample wrong.
        report = classification_report([0, 0, 0, 1], [0, 0, 0, 0])
        assert report.recall == pytest.approx(0.75)
        assert report.tp_rate == report.recall

    def test_worst_class_gap(self):
        report = classification_report([0, 0, 1, 1], [0, 0, 1, 0])
        assert report.worst_class_gap("recall") >= 0.0

    def test_auc_included_with_probabilities(self):
        y = [0, 0, 1, 1]
        probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
        report = classification_report(y, [0, 0, 1, 1], probs)
        assert report.auc_roc == 1.0

    def test_auc_none_without_probabilities(self):
        report = classification_report([0, 1], [0, 1])
        assert report.auc_roc is None


class TestAuc:
    def test_perfect_separation(self):
        y = [0, 0, 1, 1]
        probs = np.array([[0.9, 0.1], [0.7, 0.3], [0.3, 0.7], [0.1, 0.9]])
        assert roc_auc_ovr_weighted(y, probs) == 1.0

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 2000)
        probs = rng.random((2000, 2))
        assert roc_auc_ovr_weighted(y, probs) == pytest.approx(0.5, abs=0.05)

    def test_ties_give_half_credit(self):
        y = [0, 1]
        probs = np.array([[0.5, 0.5], [0.5, 0.5]])
        assert roc_auc_ovr_weighted(y, probs) == pytest.approx(0.5)

    def test_reversed_scores_give_zero(self):
        y = [0, 1]
        probs = np.array([[0.1, 0.9], [0.9, 0.1]])
        assert roc_auc_ovr_weighted(y, probs) == 0.0

    def test_single_class_raises(self):
        with pytest.raises(ValueError):
            roc_auc_ovr_weighted([1, 1], np.array([[0, 1], [0, 1]]))

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            roc_auc_ovr_weighted([0, 1], np.array([0.2, 0.8]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=4), st.integers(min_value=20, max_value=60))
    def test_auc_in_unit_interval(self, n_classes, n):
        rng = np.random.default_rng(n)
        y = rng.integers(0, n_classes, n)
        if len(np.unique(y)) < 2:
            y[0] = 0
            y[1] = 1
        probs = rng.random((n, n_classes))
        assert 0.0 <= roc_auc_ovr_weighted(y, probs) <= 1.0


class TestRegressionMetrics:
    def test_mse_rmse_mae(self):
        y, p = [0, 0, 0, 0], [1, 1, 1, 1]
        assert mean_squared_error(y, p) == 1.0
        assert root_mean_squared_error(y, p) == 1.0

    def test_r2_perfect_and_mean(self):
        y = [1.0, 2.0, 3.0]
        assert r2_score(y, y) == 1.0
        assert r2_score(y, [2.0, 2.0, 2.0]) == 0.0

    def test_r2_constant_target(self):
        assert r2_score([2.0, 2.0], [2.0, 2.0]) == 1.0
        assert r2_score([2.0, 2.0], [1.0, 3.0]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_squared_error([], [])
