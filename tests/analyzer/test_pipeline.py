"""Integration tests: analyzer pipeline over a simulated weblog.

These validate the core observer-side guarantee of the reproduction:
everything the analyzer reports is derived from HTTP rows alone, yet it
must agree with the simulator's private ground truth.
"""

from urllib.parse import parse_qsl, urlparse

import numpy as np
import pytest

from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import WeblogAnalyzer
from tests.analyzer.reference import per_user_cleartext_totals
from repro.trace.simulate import simulate_dataset, small_config


@pytest.fixture(scope="module")
def dataset():
    return simulate_dataset(small_config())


@pytest.fixture(scope="module")
def analysis(dataset):
    analyzer = WeblogAnalyzer(PublisherDirectory.from_universe(dataset.universe))
    return analyzer.analyze(dataset.rows)


class TestDetectionCompleteness:
    def test_every_impression_detected(self, dataset, analysis):
        assert len(analysis.observations) == dataset.n_impressions

    def test_n_url_params_counts_every_query_field(self, analysis):
        # The count comes from the nURL's one parse; it must equal
        # urllib's count of the same URL.
        assert analysis.observations
        for det, ob in zip(analysis.notifications, analysis.observations,
                           strict=True):
            url = det.row.url
            assert ob.n_url_params == len(
                parse_qsl(urlparse(url).query, keep_blank_values=True))

    def test_encrypted_flags_match_truth(self, dataset, analysis):
        truth = sorted(
            (i.record.request.timestamp, i.is_encrypted) for i in dataset.impressions
        )
        observed = sorted((o.timestamp - 0.5, o.is_encrypted) for o in analysis.observations)
        assert [t[1] for t in truth] == [o[1] for o in observed]

    def test_cleartext_prices_match_truth(self, dataset, analysis):
        truth = {
            i.record.notification.impression_id: i.charge_price_cpm
            for i in dataset.impressions
            if not i.is_encrypted
        }
        checked = 0
        for det in analysis.notifications:
            imp_id = det.parsed.params.get("imp_id")
            if imp_id in truth and det.parsed.cleartext_price_cpm is not None:
                assert det.parsed.cleartext_price_cpm == pytest.approx(
                    truth[imp_id], abs=1e-4
                )
                checked += 1
        assert checked == len(truth)


class TestMetadataRecovery:
    def test_city_matches_user_home(self, dataset, analysis):
        users = {u.user_id: u for u in dataset.users}
        for obs in analysis.observations[:300]:
            assert obs.city == users[obs.user_id].city.name

    def test_os_matches_user_device(self, dataset, analysis):
        users = {u.user_id: u for u in dataset.users}
        for obs in analysis.observations[:300]:
            expected = users[obs.user_id].device.os
            if expected in ("Android", "iOS", "Windows Mobile"):
                assert obs.os == expected

    def test_context_matches_truth(self, dataset, analysis):
        truth = {
            i.record.notification.impression_id: i.record.request.context
            for i in dataset.impressions
        }
        users = {u.user_id: u for u in dataset.users}
        for det, obs in zip(analysis.notifications, analysis.observations):
            imp_id = det.parsed.params.get("imp_id")
            user = users[obs.user_id]
            if user.device.os in ("Android", "iOS"):
                assert obs.context == truth[imp_id]

    def test_slot_size_recovered(self, analysis):
        known = [o for o in analysis.observations if o.slot_size]
        assert len(known) == len(analysis.observations)

    def test_publisher_iab_resolved(self, analysis):
        unresolved = [o for o in analysis.observations if o.publisher_iab == "unknown"]
        assert len(unresolved) < 0.01 * len(analysis.observations)


class TestAggregations:
    def test_entity_shares_sum_to_one(self, analysis):
        shares = analysis.entity_rtb_shares()
        assert sum(shares.values()) == pytest.approx(1.0)
        assert max(shares, key=shares.get) == "MoPub"

    def test_cleartext_share_concentrated_in_big_entities(self, analysis):
        """Figure 3: MoPub contributes even more of the cleartext prices
        than its RTB share."""
        rtb = analysis.entity_rtb_shares()
        clr = analysis.entity_cleartext_shares()
        assert clr["MoPub"] > rtb["MoPub"]

    def test_monthly_pair_encryption_rises(self, analysis):
        monthly = analysis.monthly_pair_encryption()
        assert set(monthly) == set(range(1, 13))
        early = monthly[1][0] / sum(monthly[1])
        late = monthly[12][0] / sum(monthly[12])
        assert late > early

    def test_prices_by_context_app_dearer(self, analysis):
        groups = analysis.prices_by("context")
        assert np.mean(groups["app"]) > 1.5 * np.mean(groups["web"])

    def test_per_user_totals_positive(self, analysis):
        totals = per_user_cleartext_totals(analysis)
        assert totals
        assert all(v > 0 for v in totals.values())

    def test_traffic_counts_cover_rows(self, dataset, analysis):
        assert sum(analysis.traffic_counts.values()) == dataset.n_rows


class TestAggregationRegressions:
    """Regression coverage for crashes on degenerate inputs."""

    @staticmethod
    def _result(observations):
        from collections import Counter

        from repro.analyzer.blacklist import default_blacklist
        from repro.analyzer.features import FeatureExtractor
        from repro.analyzer.pipeline import AnalysisResult

        extractor = FeatureExtractor.incremental(
            default_blacklist(), PublisherDirectory()
        )
        return AnalysisResult(
            observations=observations, traffic_counts=Counter(), extractor=extractor
        )

    @staticmethod
    def _obs(user_id="u1", price=1.0, encrypted=False):
        from repro.analyzer.pipeline import PriceObservation

        return PriceObservation(
            timestamp=1_420_070_400.0, user_id=user_id, adx="MoPub",
            dsp="dsp1", is_encrypted=encrypted, price_cpm=price,
            encrypted_token="tok" if encrypted else None, slot_size="320x50",
            publisher="pub.example", publisher_iab="IAB3", city="Madrid",
            os="Android", device_type="smartphone", context="app",
            campaign_id="c1", n_url_params=7,
        )

    def test_per_user_totals_skip_missing_prices(self):
        """A cleartext observation whose price failed to parse
        (price_cpm=None) must be skipped, not TypeError the sum."""
        result = self._result(
            [
                self._obs(price=2.0),
                self._obs(price=None),       # unparseable cleartext price
                self._obs(price=3.5),
                self._obs(price=None, encrypted=True),
            ]
        )
        assert per_user_cleartext_totals(result) == {"u1": 5.5}

    def test_per_user_totals_all_missing_prices(self):
        # Filter semantics match cleartext_prices(): a user with only
        # unparseable cleartext prices contributes no entry at all.
        result = self._result([self._obs(price=None)])
        assert per_user_cleartext_totals(result) == {}

    def test_empty_result_rtb_shares(self):
        """entity_rtb_shares on an empty analysis must return {} like
        its sibling, not ZeroDivisionError."""
        result = self._result([])
        assert result.entity_rtb_shares() == {}

    def test_empty_result_cleartext_shares(self):
        result = self._result([])
        assert result.entity_cleartext_shares() == {}

    def test_empty_result_other_aggregations(self):
        result = self._result([])
        assert result.monthly_pair_encryption() == {}
        assert result.monthly_os_counts() == {}
        assert per_user_cleartext_totals(result) == {}


class TestInterestInference:
    def test_inferred_close_to_generative(self, dataset, analysis):
        """Interest profiles recovered from browsing should usually rank
        the user's true dominant category at/near the top."""
        directory = PublisherDirectory.from_universe(dataset.universe)
        users = {u.user_id: u for u in dataset.users}
        hits = 0
        total = 0
        for user_id, agg in analysis.extractor.users.items():
            truth = users[user_id].interests.dominant
            inferred_top3 = agg.interests.top(3)
            if agg.n_requests < 30 or truth is None:
                continue
            total += 1
            if truth in inferred_top3:
                hits += 1
        assert total > 10
        assert hits / total > 0.6
