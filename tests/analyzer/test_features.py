"""Tests for the Table-4 feature extractor."""

import pytest

from repro.analyzer.blacklist import default_blacklist
from repro.analyzer.detector import detect_notifications
from repro.analyzer.features import (
    CORE_FEATURES,
    FeatureExtractor,
)
from repro.analyzer.interests import PublisherDirectory
from repro.rtb.nurl import WinNotification, build_nurl
from repro.trace.weblog import HttpRequest
from repro.util.timeutil import epoch


def content_row(user="u1", domain="news.example.es", ts=None, ip="85.10.5.5"):
    return HttpRequest(
        timestamp=ts or epoch(2015, 3, 10, 9),
        user_id=user,
        url=f"https://{domain}/page/1",
        domain=domain,
        user_agent=(
            "Mozilla/5.0 (Linux; Android 5.1.1; SM-G920F) AppleWebKit/537.36 "
            "(KHTML, like Gecko) Chrome/46.0.2490.76 Mobile Safari/537.36"
        ),
        kind="content",
        bytes_transferred=40_000,
        duration_ms=300.0,
        client_ip=ip,
    )


def nurl_row(user="u1", price=0.8, campaign="cmp-1", ts=None):
    notification = WinNotification(
        adx="MoPub",
        dsp="Criteo-DSP",
        charge_price_cpm=price,
        encrypted_price=None,
        impression_id="i1",
        auction_id="a1",
        ad_domain="brand00.example.com",
        slot_size="300x250",
        publisher="news.example.es",
        campaign_id=campaign,
    )
    return HttpRequest(
        timestamp=ts or epoch(2015, 3, 10, 9, 30),
        user_id=user,
        url=build_nurl(notification),
        domain="cpp.imp.mpx.mopub.com",
        user_agent=content_row(user).user_agent,
        kind="nurl",
        bytes_transferred=600,
        duration_ms=80.0,
        client_ip="85.10.5.5",
    )


@pytest.fixture()
def extractor_setup():
    directory = PublisherDirectory()
    directory.register("news.example.es", "IAB12")
    rows = [
        content_row(),
        content_row(domain="news.example.es", ts=epoch(2015, 3, 11, 20)),
        nurl_row(),
        nurl_row(campaign="cmp-1", ts=epoch(2015, 3, 12, 9)),
        nurl_row(campaign="cmp-2", ts=epoch(2015, 3, 13, 9)),
        HttpRequest(
            timestamp=epoch(2015, 3, 10, 9, 31),
            user_id="u1",
            url="https://sync.mopub.com/match?partner=DBM&partner_uid=xyz",
            domain="sync.mopub.com",
            user_agent=content_row().user_agent,
            kind="sync",
            bytes_transferred=200,
            duration_ms=50.0,
            client_ip="85.10.5.5",
        ),
    ]
    blacklist = default_blacklist()
    detections = list(detect_notifications(rows, blacklist))
    extractor = FeatureExtractor(rows, detections, blacklist, directory)
    return extractor, detections


class TestAggregates:
    def test_user_http_stats(self, extractor_setup):
        extractor, _ = extractor_setup
        user = extractor.users["u1"]
        assert user.n_requests == 6
        assert user.total_bytes > 80_000
        assert user.avg_bytes_per_request == pytest.approx(user.total_bytes / 6)

    def test_sync_counted(self, extractor_setup):
        extractor, _ = extractor_setup
        assert extractor.users["u1"].n_syncs == 1

    def test_city_from_ip(self, extractor_setup):
        extractor, _ = extractor_setup
        assert extractor.users["u1"].cities == {"Madrid"}

    def test_interests_from_content(self, extractor_setup):
        extractor, _ = extractor_setup
        assert extractor.users["u1"].interests.dominant == "IAB12"

    def test_advertiser_stats(self, extractor_setup):
        extractor, _ = extractor_setup
        adv = extractor.advertisers["brand00.example.com"]
        assert adv.n_requests == 3
        assert adv.avg_requests_per_user == 3.0

    def test_campaign_popularity(self, extractor_setup):
        extractor, _ = extractor_setup
        assert extractor.campaign_counts["cmp-1"] == 2
        assert extractor.campaign_counts["cmp-2"] == 1


class TestVectors:
    def test_core_vector_keys_and_values(self, extractor_setup):
        extractor, detections = extractor_setup
        vector = extractor.core_vector(detections[0])
        assert set(vector) == set(CORE_FEATURES)
        assert vector["adx"] == "MoPub"
        assert vector["city"] == "Madrid"
        assert vector["slot_size"] == "300x250"
        assert vector["publisher_iab"] == "IAB12"
        assert vector["context"] == "web"
        assert vector["time_of_day"] == 2      # 09:30 -> bucket 2

    def test_full_vector_superset_of_core(self, extractor_setup):
        extractor, detections = extractor_setup
        full = extractor.full_vector(detections[0])
        core = extractor.core_vector(detections[0])
        for key, value in core.items():
            assert full[key] == value
        assert full["campaign_popularity"] == 2
        assert full["user_n_syncs"] == 1
        assert full["dsp"] == "Criteo-DSP"

    def test_full_vector_matches_declared_names(self, extractor_setup):
        extractor, detections = extractor_setup
        full = extractor.full_vector(detections[0])
        assert set(full) == set(extractor.feature_names_full())

    def test_interest_expansion_weights(self, extractor_setup):
        extractor, detections = extractor_setup
        full = extractor.full_vector(detections[0])
        assert full["interest_IAB12"] == pytest.approx(1.0)
        assert full["interest_IAB15"] == 0.0

    def test_hour_and_dow_indicators(self, extractor_setup):
        extractor, detections = extractor_setup
        full = extractor.full_vector(detections[0])
        assert full["hour_09"] == 1
        assert sum(full[f"hour_{h:02d}"] for h in range(24)) == 1
        assert sum(full[f"dow_{d}"] for d in range(7)) == 1
