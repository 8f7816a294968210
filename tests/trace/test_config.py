"""Tests for simulation configuration scaling."""

import pytest

from repro.trace.simulate import default_config, small_config


class TestConfigScaling:
    def test_default_is_paper_scale(self):
        config = default_config()
        assert config.n_users == 1594
        assert config.period.days == 365

    def test_scaled_preserves_other_knobs(self):
        config = default_config().scaled(0.1)
        assert config.n_users == 159
        assert config.target_auctions == 12_000
        assert config.seed == default_config().seed
        assert config.period == default_config().period

    def test_scaled_floors(self):
        config = default_config().scaled(1e-9)
        assert config.n_users >= 10
        assert config.target_auctions >= 100

    def test_small_config_is_fast_scale(self):
        config = small_config()
        assert config.n_users <= 100
        assert config.target_auctions <= 5_000

    def test_config_hashable_for_caching(self):
        a = small_config(seed=1)
        b = small_config(seed=1)
        assert hash(a) == hash(b)
        assert a == b
