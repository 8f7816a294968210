"""Tests for cross-validation and splitting."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestClassifier
from repro.ml.model_selection import (
    cross_validate_classifier,
    stratified_kfold_indices,
    train_test_split,
)


class TestTrainTestSplit:
    def test_partition_is_complete_and_disjoint(self):
        train, test = train_test_split(100, 0.25, seed=1)
        combined = np.sort(np.concatenate([train, test]))
        assert np.array_equal(combined, np.arange(100))
        assert len(test) == 25

    def test_deterministic(self):
        a = train_test_split(50, 0.2, seed=3)
        b = train_test_split(50, 0.2, seed=3)
        assert np.array_equal(a[0], b[0])

    def test_bad_fraction_raises(self):
        with pytest.raises(ValueError):
            train_test_split(10, 0.0)
        with pytest.raises(ValueError):
            train_test_split(10, 1.0)

    def test_too_few_samples_raises(self):
        with pytest.raises(ValueError):
            train_test_split(1)


class TestKFold:
    def test_each_sample_tested_exactly_once(self):
        y = np.array([0] * 37 + [1] * 13)
        seen = np.zeros(50, dtype=int)
        for train, test in stratified_kfold_indices(y, 5, seed=0):
            seen[test] += 1
            assert len(set(train) & set(test)) == 0
            assert len(train) + len(test) == 50
        assert np.all(seen == 1)

    def test_fold_count(self):
        folds = list(stratified_kfold_indices([0, 1, 1] * 10, 3, seed=0))
        assert len(folds) == 3


class TestStratifiedKFold:
    def test_class_balance_preserved(self):
        y = np.array([0] * 40 + [1] * 10)
        for train, test in stratified_kfold_indices(y, 5, seed=0):
            test_labels = y[test]
            # Every fold carries both classes in proportion.
            assert (test_labels == 1).sum() == 2
            assert (test_labels == 0).sum() == 8

    def test_partition_complete(self):
        y = np.array([0, 1] * 25)
        seen = np.zeros(50, dtype=int)
        folds = list(stratified_kfold_indices(y, 5, seed=1))
        assert len(folds) == 5
        for train, test in folds:
            seen[test] += 1
            assert len(set(train) & set(test)) == 0
        assert np.all(seen == 1)

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError):
            list(stratified_kfold_indices([0, 1] * 5, 1))


class TestCrossValidate:
    def test_scores_sensible_on_learnable_data(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(300, 4))
        y = (x[:, 0] > 0).astype(int)
        result = cross_validate_classifier(
            lambda: RandomForestClassifier(n_estimators=8, seed=0),
            x, y, n_folds=5, n_runs=1, seed=2,
        )
        assert result.accuracy > 0.85
        assert 0.9 < result.auc_roc <= 1.0
        assert result.tp_rate == pytest.approx(result.recall)

    def test_report_count(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] > 0).astype(int)
        result = cross_validate_classifier(
            lambda: RandomForestClassifier(n_estimators=3, seed=0),
            x, y, n_folds=4, n_runs=2, seed=0,
        )
        assert len(result.reports) == 8

    def test_summary_keys(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 3))
        y = (x[:, 0] > 0).astype(int)
        result = cross_validate_classifier(
            lambda: RandomForestClassifier(n_estimators=3, seed=0),
            x, y, n_folds=3, n_runs=1, seed=0,
        )
        summary = result.summary()
        assert {"accuracy", "precision", "recall", "auc_roc", "fp_rate"} <= set(summary)
