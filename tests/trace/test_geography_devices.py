"""Tests for the geography and device catalogs."""

import numpy as np
import pytest

from repro.trace.devices import (
    DEVICE_TYPE_SHARES,
    OS_SHARES,
    DeviceProfile,
    sample_device,
    sample_os,
)
from repro.trace.geography import (
    CAMPAIGN_CITIES,
    CITIES,
    CITIES_BY_SIZE,
    City,
    city_by_name,
    population_weights,
)


class TestCities:
    def test_paper_city_roster(self):
        names = {c.name for c in CITIES}
        assert {"Madrid", "Barcelona", "Seville", "Valencia", "Malaga",
                "Zaragoza", "Torello"} <= names
        assert len(CITIES) == 10

    def test_sorted_by_size(self):
        assert CITIES_BY_SIZE[0] == "Madrid"
        assert CITIES_BY_SIZE[1] == "Barcelona"

    def test_campaign_cities_are_the_big_four(self):
        assert set(CAMPAIGN_CITIES) == {"Madrid", "Barcelona", "Valencia", "Seville"}

    def test_big_cities_lower_median_multiplier(self):
        """Figure 5: large cities have lower median prices."""
        madrid = city_by_name("Madrid")
        torello = city_by_name("Torello")
        assert madrid.price_multiplier < torello.price_multiplier

    def test_big_cities_higher_volatility(self):
        """Figure 5: large cities fluctuate more."""
        madrid = city_by_name("Madrid")
        torello = city_by_name("Torello")
        assert madrid.price_volatility > torello.price_volatility

    def test_population_weights_normalised(self):
        weights = population_weights()
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] == max(weights)  # Madrid dominates

    def test_unknown_city_raises(self):
        with pytest.raises(KeyError):
            city_by_name("Atlantis")

    def test_bad_city_construction(self):
        with pytest.raises(ValueError):
            City("X", 0, 1.0, 0.1, 10)
        with pytest.raises(ValueError):
            City("X", 100, 1.0, 0.1, 300)


class TestDevices:
    def test_os_shares_sum_to_one(self):
        assert sum(OS_SHARES.values()) == pytest.approx(1.0)
        assert sum(DEVICE_TYPE_SHARES.values()) == pytest.approx(1.0)

    def test_android_roughly_twice_ios(self):
        """Figure 8's premise: ~2x more Android devices."""
        assert 1.8 < OS_SHARES["Android"] / OS_SHARES["iOS"] < 2.3

    def test_sample_os_distribution(self):
        rng = np.random.default_rng(1)
        draws = [sample_os(rng) for _ in range(4000)]
        android = draws.count("Android") / len(draws)
        assert android == pytest.approx(OS_SHARES["Android"], abs=0.03)

    def test_sample_device_pinned_os(self):
        rng = np.random.default_rng(2)
        device = sample_device(rng, os_name="iOS")
        assert device.os == "iOS"

    def test_windows_devices_are_phones(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            device = sample_device(rng, os_name="Windows Mobile")
            assert device.device_type == "smartphone"


class TestUserAgents:
    def test_android_app_ua_carries_dalvik(self):
        device = DeviceProfile("Android", "smartphone", "SM-G920F", "5.1.1")
        assert "Dalvik" in device.user_agent(is_app=True)
        assert "Dalvik" not in device.user_agent(is_app=False)

    def test_ios_app_ua_carries_cfnetwork_and_model(self):
        device = DeviceProfile("iOS", "tablet", "iPad4,1", "9.0.2")
        ua = device.user_agent(is_app=True)
        assert "CFNetwork" in ua
        assert "iPad" in ua

    def test_ios_web_ua_device_token(self):
        phone = DeviceProfile("iOS", "smartphone", "iPhone7,2", "8.4")
        tablet = DeviceProfile("iOS", "tablet", "iPad4,1", "8.4")
        assert "iPhone" in phone.user_agent(is_app=False)
        assert "iPad" in tablet.user_agent(is_app=False)

    def test_windows_ua(self):
        device = DeviceProfile("Windows Mobile", "smartphone", "Lumia 640", "8.1")
        assert "Windows Phone" in device.user_agent(is_app=False)

    def test_equal_devices_share_one_string(self):
        """Weblog rows of a device hold one UA object per context."""
        a = DeviceProfile("Android", "smartphone", "SM-G920F", "5.1.1")
        b = DeviceProfile("Android", "smartphone", "SM-G920F", "5.1.1")
        assert a.user_agent(is_app=True) is b.user_agent(is_app=True)
        assert a.user_agent(is_app=False) is b.user_agent(is_app=False)
        assert a.user_agent(is_app=True) != a.user_agent(is_app=False)
