"""Tests for entities, cookie sync, IAB taxonomy and slot sizes."""

import pytest

from repro.rtb.adslots import AdSlotSize, sort_by_area
from repro.rtb.cookiesync import CookieSyncRegistry, synced_uid
from repro.rtb.entities import (
    ENCRYPTING_ADXS,
    MARKET_SHARES,
    Advertiser,
    Dmp,
    Publisher,
)
from repro.rtb.iab import (
    DATASET_CATEGORIES,
    IAB_CATEGORIES,
    InterestProfile,
    is_valid_category,
)


class TestAdSlots:
    def test_parse_and_label(self):
        slot = AdSlotSize.parse("300x250")
        assert slot.width == 300 and slot.height == 250
        assert slot.label == "300x250"
        assert slot.area == 75_000

    def test_parse_case_insensitive(self):
        assert AdSlotSize.parse("728X90") == AdSlotSize(728, 90)

    def test_parse_garbage_rejected(self):
        for bad in ("300", "300x", "x250", "wide", "300x250x10"):
            with pytest.raises(ValueError):
                AdSlotSize.parse(bad)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            AdSlotSize(0, 250)

    def test_sort_by_area(self):
        assert sort_by_area(["300x250", "320x50", "728x90"]) == [
            "320x50", "728x90", "300x250",
        ]


class TestIab:
    def test_full_taxonomy(self):
        assert len(IAB_CATEGORIES) == 26

    def test_validation(self):
        assert is_valid_category("IAB1")
        assert not is_valid_category("IAB99")

    def test_dataset_categories_all_valid(self):
        assert len(DATASET_CATEGORIES) == 18
        assert all(is_valid_category(c) for c in DATASET_CATEGORIES)


class TestInterestProfile:
    def test_from_counts_normalises_and_sorts(self):
        profile = InterestProfile.from_counts({"IAB3": 3.0, "IAB12": 1.0})
        assert profile.dominant == "IAB3"
        assert profile.weight("IAB3") == pytest.approx(0.75)
        assert profile.weight("IAB12") == pytest.approx(0.25)
        assert profile.weight("IAB15") == 0.0

    def test_empty_counts(self):
        profile = InterestProfile.from_counts({})
        assert profile.dominant is None
        assert profile.top(3) == []

    def test_invalid_category_rejected(self):
        with pytest.raises(ValueError):
            InterestProfile((("IAB99", 1.0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            InterestProfile((("IAB1", -0.5),))

    def test_top_k(self):
        profile = InterestProfile.from_counts({"IAB1": 5, "IAB2": 3, "IAB3": 1})
        assert profile.top(2) == ["IAB1", "IAB2"]


class TestMarketRoster:
    def test_shares_sum_to_one(self):
        assert sum(MARKET_SHARES.values()) == pytest.approx(1.0)

    def test_paper_headline_shares(self):
        assert MARKET_SHARES["MoPub"] == pytest.approx(0.3355)
        assert MARKET_SHARES["Adnxs"] == pytest.approx(0.1074)

    def test_encrypting_adxs_in_roster(self):
        assert set(ENCRYPTING_ADXS) <= set(MARKET_SHARES)


class TestEntities:
    def test_publisher_validation(self):
        slot = (AdSlotSize(300, 250),)
        pub = Publisher("x.es", "X", "IAB12", False, slot)
        assert pub.kind == "web"
        with pytest.raises(ValueError):
            Publisher("x.es", "X", "IAB99", False, slot)
        with pytest.raises(ValueError):
            Publisher("x.es", "X", "IAB12", False, ())
        with pytest.raises(ValueError):
            Publisher("x.es", "X", "IAB12", False, slot, popularity=0)

    def test_advertiser_validation(self):
        Advertiser("A", "a.com", "IAB3")
        with pytest.raises(ValueError):
            Advertiser("A", "a.com", "nope")

    def test_dmp_profiles(self):
        dmp = Dmp()
        interests = InterestProfile.from_counts({"IAB3": 1.0})
        dmp.ingest("u1", interests=interests, city="Madrid", device_os="iOS")
        dmp.ingest("u1", city="Madrid")  # dedup city
        profile = dmp.query("u1")
        assert profile["cities"] == ["Madrid"]
        assert profile["device_os"] == "iOS"
        assert dmp.query("ghost") is None
        assert len(dmp) == 1


class TestCookieSync:
    def test_sync_once_per_triple(self):
        registry = CookieSyncRegistry()
        uid1, new1 = registry.sync("u1", "MoPub", "DBM")
        uid2, new2 = registry.sync("u1", "MoPub", "DBM")
        assert new1 and not new2
        assert uid1 == uid2

    def test_lookup_after_sync(self):
        registry = CookieSyncRegistry()
        assert registry.lookup("u1", "MoPub", "DBM") is None
        uid, _ = registry.sync("u1", "MoPub", "DBM")
        assert registry.lookup("u1", "MoPub", "DBM") == uid

    def test_uid_deterministic_per_party(self):
        assert synced_uid("DBM", "u1") == synced_uid("DBM", "u1")
        assert synced_uid("DBM", "u1") != synced_uid("Turn", "u1")

    def test_known_destinations(self):
        registry = CookieSyncRegistry()
        registry.sync("u1", "MoPub", "DBM")
        registry.sync("u1", "MoPub", "Turn-DSP")
        registry.sync("u2", "MoPub", "DBM")
        destinations = registry.known_destinations("u1", "MoPub")
        assert set(destinations) == {"DBM", "Turn-DSP"}

    def test_beacon_url_shape(self):
        registry = CookieSyncRegistry()
        url = registry.beacon_url("u1", "MoPub", "DBM")
        assert url.startswith("https://sync.mopub.com/match?")
        assert "partner_uid=" in url
