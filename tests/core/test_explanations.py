"""Tests for price-estimate explanations."""

import pytest

from repro.core.estimator import Estimator


@pytest.fixture(scope="module")
def model():
    rows = []
    prices = []
    # Price determined by context and slot; other features are noise.
    for i in range(400):
        context = "app" if i % 2 else "web"
        slot = "300x250" if i % 3 == 0 else "320x50"
        price = 0.3 * (2.6 if context == "app" else 1.0)
        price *= 1.7 if slot == "300x250" else 1.0
        price *= 1.0 + 0.001 * (i % 7)
        rows.append({"context": context, "slot_size": slot, "noise": i % 5})
        prices.append(price)
    trained = Estimator.train(
        rows, prices, feature_names=["context", "slot_size", "noise"],
        n_estimators=10, max_depth=6, seed=1,
    )
    return trained, rows


class TestExplanations:
    def test_explanation_matches_estimate(self, model):
        m, rows = model
        explanation = m.explain(rows[0])
        assert explanation["estimated_cpm"] == pytest.approx(m.estimate_one(rows[0]))

    def test_class_probabilities_sum_to_one(self, model):
        m, rows = model
        explanation = m.explain(rows[1])
        assert sum(explanation["class_probabilities"]) == pytest.approx(1.0)
        assert explanation["predicted_class"] == max(
            range(len(explanation["class_probabilities"])),
            key=explanation["class_probabilities"].__getitem__,
        )

    def test_decision_path_names_real_features(self, model):
        m, rows = model
        explanation = m.explain(rows[2])
        for step in explanation["decision_path"]:
            assert step["feature"] in m.feature_names
            assert isinstance(step["went_left"], bool)

    def test_top_features_are_the_informative_ones(self, model):
        m, rows = model
        explanation = m.explain(rows[0])
        top_names = [t["feature"] for t in explanation["top_features"][:2]]
        assert set(top_names) <= {"context", "slot_size", "noise"}
        assert "context" in top_names or "slot_size" in top_names

    def test_path_values_echo_the_row(self, model):
        m, rows = model
        row = rows[3]
        explanation = m.explain(row)
        for step in explanation["decision_path"]:
            assert step["value"] == row.get(step["feature"])
