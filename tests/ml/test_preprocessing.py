"""Tests for encoders and feature filters."""

import numpy as np
import pytest

from repro.ml.preprocessing import (
    CorrelationFilter,
    FrameEncoder,
    OrdinalEncoder,
    Standardizer,
    VarianceFilter,
)
from tests.ml.reference import frame_encoder_transform


class TestOrdinalEncoder:
    def test_codes_stable_by_first_appearance(self):
        enc = OrdinalEncoder().fit([["b", "a", "b", "c"]])
        out = enc.transform([["a", "b", "c"]])
        assert out[:, 0].tolist() == [1.0, 0.0, 2.0]

    def test_unknown_maps_to_minus_one(self):
        enc = OrdinalEncoder().fit([["x", "y"]])
        assert enc.transform([["z"]])[0, 0] == -1.0

    def test_column_count_mismatch_raises(self):
        enc = OrdinalEncoder().fit([["a"], ["b"]])
        with pytest.raises(ValueError):
            enc.transform([["a"]])

    def test_vocabulary(self):
        enc = OrdinalEncoder().fit([["a", "b"]])
        assert enc.vocabulary(0) == {"a": 0, "b": 1}


class TestStandardizer:
    def test_zero_mean_unit_variance(self):
        rng = np.random.default_rng(0)
        x = rng.normal(5.0, 2.0, size=(500, 3))
        z = Standardizer().fit_transform(x)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-10)
        assert np.allclose(z.std(axis=0), 1.0, atol=1e-10)

    def test_constant_column_passes_through_centred(self):
        x = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        z = Standardizer().fit_transform(x)
        assert np.allclose(z[:, 0], 0.0)

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            Standardizer().transform(np.zeros((2, 2)))


class TestVarianceFilter:
    def test_drops_constant_column(self):
        x = np.column_stack([np.ones(50), np.random.default_rng(0).normal(size=50)])
        filt = VarianceFilter(upper_quantile=None).fit(x)
        assert filt.kept_.tolist() == [1]

    def test_drops_extreme_variance_column(self):
        rng = np.random.default_rng(1)
        x = np.column_stack(
            [rng.normal(size=200) for _ in range(10)] + [rng.normal(0, 1000, 200)]
        )
        filt = VarianceFilter(upper_quantile=0.9).fit(x)
        assert 10 not in filt.kept_.tolist()

    def test_all_constant_raises(self):
        with pytest.raises(ValueError):
            VarianceFilter().fit(np.ones((10, 3)))

    def test_kept_names(self):
        x = np.column_stack([np.ones(20), np.arange(20, dtype=float)])
        filt = VarianceFilter(upper_quantile=None).fit(x)
        assert filt.kept_names(["const", "ramp"]) == ["ramp"]


class TestCorrelationFilter:
    def test_drops_duplicate_column(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=200)
        x = np.column_stack([base, base * 2.0, rng.normal(size=200)])
        filt = CorrelationFilter(threshold=0.95).fit(x)
        assert filt.kept_.tolist() == [0, 2]

    def test_keeps_uncorrelated(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(300, 4))
        filt = CorrelationFilter().fit(x)
        assert filt.kept_.tolist() == [0, 1, 2, 3]

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            CorrelationFilter().transform(np.zeros((2, 2)))


class TestFrameEncoder:
    ROWS = [
        {"city": "Madrid", "price": 1.0, "os": "iOS"},
        {"city": "Torello", "price": 2.5, "os": "Android"},
    ]

    def test_numeric_passthrough_and_categorical_codes(self):
        enc = FrameEncoder(["city", "price", "os"])
        x = enc.fit_transform(self.ROWS)
        assert x[:, 1].tolist() == [1.0, 2.5]
        assert x[0, 0] != x[1, 0]

    def test_schema_fixed_at_fit(self):
        enc = FrameEncoder(["city", "price"])
        enc.fit(self.ROWS)
        out = enc.transform([{"city": "Madrid", "price": 9.0}])
        assert out[0, 1] == 9.0

    def test_unseen_category_is_minus_one(self):
        enc = FrameEncoder(["city"])
        enc.fit(self.ROWS)
        assert enc.transform([{"city": "Paris"}])[0, 0] == -1.0

    def test_missing_key_handled(self):
        enc = FrameEncoder(["city", "os"])
        enc.fit(self.ROWS)
        out = enc.transform([{"city": "Madrid"}])
        assert out[0, 1] == -1.0  # missing categorical -> unseen

    def test_serialisation_roundtrip(self):
        enc = FrameEncoder(["city", "price"]).fit(self.ROWS)
        clone = FrameEncoder.from_dict(enc.to_dict())
        a = enc.transform(self.ROWS)
        b = clone.transform(self.ROWS)
        assert np.array_equal(a, b)

    def test_empty_features_rejected(self):
        with pytest.raises(ValueError):
            FrameEncoder([])

    def test_fit_zero_rows_rejected(self):
        with pytest.raises(ValueError):
            FrameEncoder(["a"]).fit([])

    def test_unfitted_transform_raises(self):
        with pytest.raises(RuntimeError):
            FrameEncoder(["a"]).transform([{"a": 1}])


def _frame_rows(n: int, seed: int) -> list[dict]:
    """Rows with numeric and categorical columns, unseen categories,
    missing keys and extra keys."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        row = {
            "city": str(rng.choice(["Madrid", "Torello", "Paris", "Lima"])),
            "hour": int(rng.integers(0, 24)),
            "price": float(rng.normal()) * 10.0 ** int(rng.integers(-3, 4)),
            "os": str(rng.choice(["iOS", "Android", "KaiOS"])),
            "extra": i,
        }
        for key in ("city", "hour", "price", "os"):
            if rng.random() < 0.1:
                del row[key]
        rows.append(row)
    return rows


class TestFrameEncoderMatchesColumnWise:
    """``FrameEncoder.transform`` equals the column-wise reference."""

    NAMES = ["city", "hour", "price", "os"]

    @pytest.fixture(scope="class")
    def encoder(self):
        train = [r for r in _frame_rows(300, seed=1)
                 if all(k in r for k in self.NAMES)
                 and r["city"] != "Lima" and r["os"] != "KaiOS"]
        return FrameEncoder(self.NAMES).fit(train)

    @pytest.mark.parametrize("n", [0, 1, 2, 1025])
    def test_array_equal(self, encoder, n):
        rows = _frame_rows(n, seed=n)
        out = encoder.transform(rows)
        expected = frame_encoder_transform(encoder, rows)
        assert out.shape == (n, len(self.NAMES))
        assert out.flags.c_contiguous
        assert np.array_equal(out, expected)

    def test_mask_is_what_the_rows_exercise(self, encoder):
        rows = _frame_rows(1025, seed=1025)
        assert encoder.to_dict()["numeric_mask"] == [False, True, True, False]
        out = encoder.transform(rows)
        assert np.any(out[:, 0] == -1.0) and np.any(out[:, 3] == -1.0)
        assert np.any(out[:, 1] == -1.0) and np.any(out[:, 2] == -1.0)

    def test_loaded_encoder(self, encoder):
        rows = _frame_rows(40, seed=7)
        clone = FrameEncoder.from_dict(encoder.to_dict())
        assert np.array_equal(clone.transform(rows),
                              frame_encoder_transform(encoder, rows))

    def test_payload_schema_mismatch_rejected(self, encoder):
        payload = encoder.to_dict()
        with pytest.raises(ValueError):
            FrameEncoder.from_dict(payload | {"vocabulary": payload["vocabulary"][:1]})
        with pytest.raises(ValueError):
            FrameEncoder.from_dict(payload | {"numeric_mask": [False, True, True]})
