"""The histogram training engine: quantiser properties + parity gates.

Hist is the classifier's only training engine.  Four layers of
protection:

* **Quantiser properties** (hypothesis): the bin ladder is strictly
  increasing with at most 255 thresholds; codes fit ``uint8``; and the
  structural round-trip -- ``code(v) <= b`` iff ``v <= thresholds[b]``
  -- holds for *every* boundary, which is what lets a split chosen in
  code space replay as a real-valued threshold with the identical row
  partition (serialisation and serving never see codes).
* **The lossless premise** (tier1): every column the price model fits
  on the campaign-A1 fixture has at most ``MAX_BINS`` distinct values,
  so its bin boundaries are exactly the candidate thresholds of an
  exhaustive search.
* **tier1 gates**: hist training is bit-identical across
  ``workers=1/N``, and a hist forest's accuracy tracks a forest grown
  by the exact reference grower (``tests/ml/reference.py``) on
  separable data (the engines need not match split-for-split; quality
  must).
* **End-to-end**: the price model trains, packages and round-trips;
  CV trains the same engine.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaigns import run_campaign_a1
from repro.core.estimator import Estimator
from repro.core.pme import PAPER_FEATURE_SET
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.histsplit import (
    MAX_BINS,
    BinnedDataset,
    bin_thresholds,
    column_codes,
)
from repro.ml.serialize import forest_to_dict
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from repro.trace.simulate import build_market, small_config
from repro.util.rng import RngRegistry
from tests.ml.reference import reference_forest

# -- strategies --------------------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
#: Columns that force heavy duplication (small int support) or arbitrary
#: finite floats, optionally with NaNs sprinkled in.
columns = st.one_of(
    st.lists(st.integers(-5, 5).map(float), min_size=2, max_size=200),
    st.lists(finite, min_size=2, max_size=200),
    st.lists(st.one_of(finite, st.just(float("nan"))), min_size=2, max_size=120),
)


def _col(values):
    return np.asarray(values, dtype=float)


class TestQuantiserProperties:
    @settings(max_examples=80, deadline=None)
    @given(columns)
    def test_thresholds_strictly_increasing_and_bounded(self, values):
        thr = bin_thresholds(_col(values))
        assert thr.size <= MAX_BINS - 1
        assert np.all(np.diff(thr) > 0)

    @settings(max_examples=80, deadline=None)
    @given(columns)
    def test_codes_fit_uint8_and_stay_in_range(self, values):
        col = _col(values)
        thr = bin_thresholds(col)
        codes = column_codes(col, thr)
        assert codes.dtype == np.uint8
        assert codes.max(initial=0) <= thr.size  # n_bins - 1

    @settings(max_examples=100, deadline=None)
    @given(columns)
    def test_threshold_round_trip_partition_identity(self, values):
        """The structural invariant the whole engine rests on.

        For every bin boundary ``b``, splitting the codes at ``b``
        partitions the rows *identically* to splitting the raw column
        at the real threshold ``thr[b]`` -- including NaNs, which take
        the top code and fail ``v <= thr[b]``, i.e. route right both
        ways (FlatTree's IEEE comparison semantics).
        """
        col = _col(values)
        thr = bin_thresholds(col)
        codes = column_codes(col, thr)
        for b in range(thr.size):
            code_left = codes <= b
            value_left = col <= thr[b]  # NaN compares False
            assert np.array_equal(code_left, value_left)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.integers(2, 300))
    def test_constant_column_never_splittable(self, value, n):
        thr = bin_thresholds(np.full(n, value))
        assert thr.size == 0
        codes = column_codes(np.full(n, value), thr)
        assert np.all(codes == 0)

    def test_high_cardinality_column_respects_bin_cap(self):
        rng = np.random.default_rng(0)
        col = rng.normal(size=5000)  # ~5000 distinct values
        thr = bin_thresholds(col)
        assert 0 < thr.size <= MAX_BINS - 1
        codes = column_codes(col, thr)
        # Every bin below the top one is actually populated (rank cuts).
        assert np.unique(codes).size == thr.size + 1
        for b in range(thr.size):
            assert np.array_equal(codes <= b, col <= thr[b])

    def test_low_cardinality_thresholds_are_exact_midpoints(self):
        """<=256 distinct values: hist considers exactly the candidate
        thresholds the exact splitter would (midpoints of adjacent
        uniques) -- the lossless case for the paper's feature set S."""
        col = np.array([3.0, 1.0, 1.0, 2.0, 7.0, 2.0])
        thr = bin_thresholds(col)
        assert np.array_equal(thr, [1.5, 2.5, 5.0])

    def test_nan_takes_top_bin(self):
        col = np.array([1.0, np.nan, 2.0, 3.0])
        thr = bin_thresholds(col)
        codes = column_codes(col, thr)
        assert codes[1] == thr.size  # top bin
        assert np.isnan(thr).sum() == 0

    def test_degenerate_concentration_falls_back(self):
        # 99.9% of the mass on one value, >256 distinct values overall:
        # rank cuts all land on the heavy value; the fallback still
        # produces a usable ladder.
        col = np.concatenate([np.zeros(100_000), np.arange(1.0, 301.0)])
        thr = bin_thresholds(col)
        assert 0 < thr.size <= MAX_BINS - 1
        assert np.all(np.diff(thr) > 0)

    def test_max_bins_validation(self):
        with pytest.raises(ValueError):
            bin_thresholds(np.arange(10.0), max_bins=1)
        with pytest.raises(ValueError):
            bin_thresholds(np.arange(10.0), max_bins=MAX_BINS + 1)


class TestBinnedDataset:
    def test_from_matrix_layout(self):
        rng = np.random.default_rng(1)
        x = np.column_stack([
            rng.integers(0, 4, 100),
            rng.integers(0, 7, 100),
            np.zeros(100),  # constant: 1 bin, no thresholds
        ]).astype(float)
        ds = BinnedDataset.from_matrix(x)
        assert ds.codes.dtype == np.uint8
        assert ds.codes.shape == x.shape
        assert ds.n_bins.tolist() == [4, 7, 1]
        assert ds.offsets.tolist() == [0, 4, 11]
        assert ds.total_bins == 12

    def test_check_matches_rejects_wrong_shape(self):
        x = np.random.default_rng(2).normal(size=(50, 3))
        ds = BinnedDataset.from_matrix(x)
        with pytest.raises(ValueError, match="shape"):
            ds.check_matches(x[:, :2])


# -- forest-level parity gates ----------------------------------------------

def _classification_data(n=2000, seed=0):
    rng = np.random.default_rng(seed)
    x = np.column_stack([
        rng.integers(0, 24, n),      # hour-like
        rng.integers(0, 7, n),       # day-of-week-like
        rng.integers(0, 50, n),      # city-like
        rng.normal(size=n),          # continuous noise
    ]).astype(float)
    y = (
        (x[:, 0] > 11).astype(int)
        + (x[:, 1] > 3).astype(int)
        + (x[:, 2] > 24).astype(int)
    )
    return x, np.clip(y, 0, 3)


class TestHistForestGates:
    @pytest.mark.tier1
    def test_hist_parallel_bit_identical_to_sequential(self):
        """workers=N must not change a single bit of a hist forest."""
        x, y = _classification_data(600)
        kw = dict(n_estimators=6, seed=9, oob_score=True)
        seq = RandomForestClassifier(workers=1, **kw).fit(x, y)
        par = RandomForestClassifier(workers=2, **kw).fit(x, y)
        assert forest_to_dict(seq) == forest_to_dict(par)
        assert np.array_equal(seq.predict_proba(x), par.predict_proba(x))
        assert seq.oob_score_ == par.oob_score_
        assert np.array_equal(
            seq.feature_importances_, par.feature_importances_
        )

    @pytest.mark.tier1
    def test_hist_quality_tracks_exact(self):
        """Hist need not reproduce the exact grower's trees, but accuracy
        must stay within noise of it on separable data."""
        x, y = _classification_data(2000)
        train, test = np.arange(1500), np.arange(1500, 2000)
        kw = dict(n_estimators=20, seed=4, max_depth=12)
        exact = reference_forest(x[train], y[train], **kw)
        hist = RandomForestClassifier(**kw).fit(x[train], y[train])
        acc_exact = float(np.mean(exact.predict(x[test]) == y[test]))
        acc_hist = float(np.mean(hist.predict(x[test]) == y[test]))
        assert acc_hist >= acc_exact - 0.02

    def test_hist_deterministic_across_fits(self):
        x, y = _classification_data(400, seed=3)
        kw = dict(n_estimators=4, seed=11)
        a = RandomForestClassifier(**kw).fit(x, y)
        b = RandomForestClassifier(**kw).fit(x, y)
        assert forest_to_dict(a) == forest_to_dict(b)

    def test_single_tree_self_bins_when_binned_missing(self):
        x, y = _classification_data(300, seed=7)
        tree = DecisionTreeClassifier(max_depth=6)
        tree.fit(x, y)
        assert float(np.mean(tree.predict(x) == y)) > 0.9

    def test_unknown_splitter_rejected_everywhere(self):
        """One engine per task: no layer takes an engine knob."""
        with pytest.raises(TypeError, match="splitter"):
            RandomForestClassifier(splitter="hist")
        with pytest.raises(TypeError, match="splitter"):
            RandomForestRegressor(splitter="exact")
        with pytest.raises(TypeError, match="splitter"):
            DecisionTreeClassifier(splitter="hist")
        with pytest.raises(TypeError, match="splitter"):
            DecisionTreeRegressor(splitter="exact")
        with pytest.raises(TypeError, match="splitter"):
            Estimator.train([], [], splitter="hist")


class TestPriceModelHist:
    def _rows(self, n=200, seed=1):
        rng = np.random.default_rng(seed)
        cities = ["athens", "madrid", "berlin", "paris"]
        rows = [
            {
                "city": cities[int(rng.integers(0, 4))],
                "device_type": ["phone", "tablet"][int(rng.integers(0, 2))],
                "time_of_day": int(rng.integers(0, 4)),
            }
            for _ in range(n)
        ]
        prices = (rng.lognormal(0.0, 0.8, size=n) + 0.01).tolist()
        return rows, prices

    def test_train_package_roundtrip_with_hist(self):
        rows, prices = self._rows()
        model = Estimator.train(rows, prices, n_estimators=8, seed=3)
        # Packages never see bin codes: the loaded forest is plain
        # FlatTree arrays and estimates identically.
        loaded = Estimator.from_package(model.to_package())
        a = model.estimate(rows[:20]).classes
        b = loaded.estimate(rows[:20]).classes
        assert np.array_equal(a, b)

    def test_cross_validate_inherits_hist(self):
        rows, prices = self._rows(150)
        model = Estimator.train(rows, prices, n_estimators=6, seed=5)
        result = model.cross_validate(rows, prices, n_folds=3, n_runs=1)
        assert 0.0 <= result.accuracy <= 1.0


@pytest.mark.tier1
class TestLosslessPremise:
    """Why hist can be the only classifier engine at no cost.

    The price model fits feature set S (``publisher`` excluded), whose
    columns are ordinally encoded categories with few distinct values.
    At most ``MAX_BINS`` of them means one bin per value, with bin
    boundaries at exactly the adjacent-value midpoints an exhaustive
    threshold search tries -- the two engines consider the same splits.
    """

    def test_feature_set_s_columns_bin_losslessly(self):
        market = build_market(small_config(), RngRegistry(small_config().seed))
        campaign = run_campaign_a1(market, seed=17, auctions_per_setup=20)
        rows = campaign.feature_rows()
        names = [n for n in PAPER_FEATURE_SET if n != "publisher"]
        model = Estimator.train(
            rows, list(campaign.prices()), feature_names=names,
            n_estimators=1, seed=0,
        )
        assert "publisher" not in model.feature_names
        x = model.encoder.transform(rows)
        assert x.shape == (len(rows), len(names))
        binned = BinnedDataset.from_matrix(x)
        for j, name in enumerate(model.feature_names):
            uniques = np.unique(x[:, j])
            assert uniques.size <= MAX_BINS, name
            midpoints = (uniques[:-1] + uniques[1:]) / 2.0
            assert np.array_equal(binned.thresholds[j], midpoints), name
