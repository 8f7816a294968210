"""Tests for domain classification and nURL detection."""

from urllib.parse import parse_qsl, urlparse

import pytest

from repro.analyzer.blacklist import (
    GROUP_ADVERTISING,
    GROUP_ANALYTICS,
    GROUP_REST,
    GROUP_SOCIAL,
    DomainBlacklist,
    default_blacklist,
)
from repro.analyzer.detector import (
    classify_rows,
    count_url_params,
    detect_notifications,
    is_sync_beacon,
    is_web_beacon,
)
from repro.rtb.nurl import FORMATS, WinNotification, build_nurl
from repro.trace.weblog import HttpRequest


def make_row(url: str, domain: str, kind: str = "content") -> HttpRequest:
    return HttpRequest(
        timestamp=1.0,
        user_id="u1",
        url=url,
        domain=domain,
        user_agent="Mozilla/5.0",
        kind=kind,
        bytes_transferred=100,
        duration_ms=10.0,
        client_ip="85.10.1.1",
    )


class TestBlacklist:
    def test_every_exchange_host_is_advertising(self):
        blacklist = default_blacklist()
        for fmt in FORMATS.values():
            assert blacklist.classify(fmt.host) == GROUP_ADVERTISING

    def test_subdomain_matching(self):
        blacklist = DomainBlacklist(advertising={"doubleclick.net"})
        assert blacklist.classify("ad.doubleclick.net") == GROUP_ADVERTISING
        assert blacklist.classify("deep.sub.doubleclick.net") == GROUP_ADVERTISING

    def test_unlisted_is_rest(self):
        assert default_blacklist().classify("news.example.es") == GROUP_REST

    def test_analytics_and_social_groups(self):
        blacklist = default_blacklist()
        assert blacklist.classify("google-analytics.com") == GROUP_ANALYTICS
        assert blacklist.classify("facebook.com") == GROUP_SOCIAL

    def test_case_insensitive(self):
        blacklist = default_blacklist()
        assert blacklist.classify("FACEBOOK.COM") == GROUP_SOCIAL

    def test_len_counts_entries(self):
        assert len(DomainBlacklist(advertising={"a.com", "b.com"})) == 2

    def test_advertising_takes_priority(self):
        blacklist = DomainBlacklist(
            advertising={"dual.com"}, analytics={"dual.com"}
        )
        assert blacklist.classify("dual.com") == GROUP_ADVERTISING


class TestDetector:
    def _nurl_row(self, encrypted=False):
        from repro.rtb.pricecrypto import PriceKeys, encrypt_price

        token = encrypt_price(1.0, PriceKeys.derive("t"), bytes(16))
        notification = WinNotification(
            adx="MoPub",
            dsp="Criteo-DSP",
            charge_price_cpm=None if encrypted else 0.5,
            encrypted_price=token if encrypted else None,
            impression_id="i1",
            auction_id="a1",
            slot_size="300x250",
            publisher="news.example.es",
            campaign_id="c1",
        )
        url = build_nurl(notification)
        return make_row(url, "cpp.imp.mpx.mopub.com", kind="nurl")

    def test_detects_cleartext_nurl(self):
        rows = [self._nurl_row(), make_row("https://news.example.es/p", "news.example.es")]
        found = list(detect_notifications(rows, default_blacklist()))
        assert len(found) == 1
        assert found[0].parsed.cleartext_price_cpm == pytest.approx(0.5, abs=1e-4)

    def test_detects_encrypted_nurl(self):
        found = list(detect_notifications([self._nurl_row(encrypted=True)], default_blacklist()))
        assert len(found) == 1
        assert found[0].parsed.is_encrypted

    def test_skips_non_advertising_rows(self):
        row = make_row("https://news.example.es/?charge_price=1.0", "news.example.es")
        assert list(detect_notifications([row], default_blacklist())) == []

    def test_skips_ad_rows_without_price(self):
        row = make_row("https://cpp.imp.mpx.mopub.com/pixel?x=1", "cpp.imp.mpx.mopub.com")
        assert list(detect_notifications([row], default_blacklist())) == []

    def test_n_url_params(self):
        det = list(detect_notifications([self._nurl_row()], default_blacklist()))[0]
        assert det.n_url_params >= 5

    def test_count_url_params_free_function(self):
        assert count_url_params("http://x.test/p?a=1&b=&c=3") == 3
        assert count_url_params("http://x.test/p") == 0

    @pytest.mark.parametrize("url", [
        "http://x.test/p?a=1&&b==2&c#d=4", "http://x.test/p;q?a%3D1&b+c",
        "http://x.test/p?a=1&a=2&=&x", "http://x.test/?caf\u00e9=%E2%82%AC",
    ])
    def test_count_url_params_matches_urllib(self, url):
        assert count_url_params(url) == len(
            parse_qsl(urlparse(url).query, keep_blank_values=True))

    def test_classify_rows_histogram(self):
        rows = [
            make_row("https://news.example.es/p", "news.example.es"),
            make_row("https://google-analytics.com/collect?v=1", "google-analytics.com"),
            self._nurl_row(),
        ]
        counts = classify_rows(rows, default_blacklist())
        assert counts[GROUP_REST] == 1
        assert counts[GROUP_ANALYTICS] == 1
        assert counts[GROUP_ADVERTISING] == 1


class TestBeaconHeuristics:
    def test_sync_beacon_by_param(self):
        row = make_row(
            "https://sync.mopub.com/match?partner=DBM&partner_uid=abc",
            "sync.mopub.com",
        )
        assert is_sync_beacon(row)

    def test_web_beacon_by_path(self):
        row = make_row("https://stats.trackerhub.io/collect?v=1", "stats.trackerhub.io")
        assert is_web_beacon(row)

    def test_content_is_neither(self):
        row = make_row("https://news.example.es/page/1", "news.example.es")
        assert not is_sync_beacon(row)
        assert not is_web_beacon(row)
