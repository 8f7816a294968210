"""Tests for UA parsing and reverse IP geocoding."""

import pytest

from repro.analyzer.geoip import GeoIpResolver
from repro.analyzer.useragent import parse_user_agent
from repro.trace.devices import DeviceProfile, sample_device
from repro.trace.geography import CITIES, assign_ip
from repro.util.rng import stream


class TestUserAgentParsing:
    def test_android_app(self):
        ua = "Dalvik/2.1.0 (Linux; U; Android 5.1.1; SM-G920F Build/LRX21T)"
        parsed = parse_user_agent(ua)
        assert parsed.os == "Android"
        assert parsed.is_app
        assert parsed.device_type == "smartphone"
        assert parsed.context == "app"

    def test_android_tablet_model(self):
        ua = "Dalvik/2.1.0 (Linux; U; Android 4.4.4; SM-T530 Build/KOT49H)"
        assert parse_user_agent(ua).device_type == "tablet"

    def test_ios_app(self):
        ua = "MobileApp/3.2 (iPhone7,2; iOS 9.0.2) CFNetwork/711.3.18 Darwin/15.0.0"
        parsed = parse_user_agent(ua)
        assert parsed.os == "iOS"
        assert parsed.is_app
        assert parsed.device_type == "smartphone"

    def test_ipad_app(self):
        ua = "MobileApp/3.2 (iPad4,1; iOS 8.4) CFNetwork/711.3.18 Darwin/14.0.0"
        assert parse_user_agent(ua).device_type == "tablet"

    def test_android_browser(self):
        ua = (
            "Mozilla/5.0 (Linux; Android 6.0; Nexus 5) AppleWebKit/537.36 "
            "(KHTML, like Gecko) Chrome/46.0.2490.76 Mobile Safari/537.36"
        )
        parsed = parse_user_agent(ua)
        assert parsed.os == "Android"
        assert not parsed.is_app
        assert parsed.context == "web"

    def test_iphone_safari(self):
        ua = (
            "Mozilla/5.0 (iPhone; CPU OS 8_4 like Mac OS X) AppleWebKit/600.1.4 "
            "(KHTML, like Gecko) Version/8.0 Mobile/12B411 Safari/600.1.4"
        )
        parsed = parse_user_agent(ua)
        assert parsed.os == "iOS"
        assert parsed.device_type == "smartphone"
        assert not parsed.is_app

    def test_windows_phone(self):
        ua = "Mozilla/5.0 (Windows Phone 8.1; Android 4.2.1; Microsoft; Lumia 640 LTE)"
        parsed = parse_user_agent(ua)
        assert parsed.os == "Windows Mobile"
        assert parsed.device_type == "smartphone"

    def test_unknown_ua_degrades_gracefully(self):
        parsed = parse_user_agent("curl/7.64.0")
        assert parsed.os == "Other"
        assert parsed.device_type == "unknown"
        assert not parsed.is_app

    def test_empty_ua(self):
        assert parse_user_agent("").os == "Other"

    def test_roundtrip_against_device_catalog(self):
        """Every UA our devices emit must parse back to the truth."""
        rng = stream("ua-roundtrip")
        for _ in range(60):
            device = sample_device(rng)
            for is_app in (False, True):
                if device.os == "Other":
                    continue
                parsed = parse_user_agent(device.user_agent(is_app))
                assert parsed.os == device.os
                if device.os in ("Android", "iOS"):
                    assert parsed.is_app == is_app
                    assert parsed.device_type == device.device_type


class TestGeoIpResolver:
    def test_resolves_all_known_cities(self):
        resolver = GeoIpResolver()
        rng = stream("geo")
        for city in CITIES:
            lookup = resolver.lookup(assign_ip(city, rng))
            assert lookup.resolved
            assert lookup.city == city.name
            assert lookup.country == "ES"

    def test_unknown_network(self):
        lookup = GeoIpResolver().lookup("8.8.8.8")
        assert not lookup.resolved
        assert lookup.city is None

    def test_malformed_ips(self):
        resolver = GeoIpResolver()
        for bad in ("", "85.10.1", "85.10.1.2.3", "85.abc.1.2", "85.999.1.2"):
            assert not resolver.lookup(bad).resolved

    def test_custom_table(self):
        resolver = GeoIpResolver(table={"10.1": ("Testville", "XX")})
        assert resolver.lookup("10.1.2.3").city == "Testville"
        assert not resolver.lookup("85.10.1.1").resolved
