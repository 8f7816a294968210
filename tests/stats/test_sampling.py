"""Tests for the section-5.2 sample-size arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.sampling import (
    CampaignSizing,
    margin_of_error,
    required_samples,
    z_score,
)


class TestZScore:
    def test_classic_values(self):
        assert z_score(0.95) == pytest.approx(1.96, abs=0.005)
        assert z_score(0.99) == pytest.approx(2.576, abs=0.005)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            z_score(1.5)


class TestMarginOfError:
    def test_paper_setup_margin(self):
        """144 setups over the MoPub campaigns (std=2.15) give ~0.35 CPM."""
        margin = margin_of_error(std=2.15, n=144, confidence=0.95)
        assert margin == pytest.approx(0.35, abs=0.005)

    def test_shrinks_with_n(self):
        assert margin_of_error(2.15, 400) < margin_of_error(2.15, 100)

    @given(st.floats(0.1, 10), st.integers(2, 10_000))
    def test_positive(self, std, n):
        assert margin_of_error(std, n) > 0


class TestRequiredSamples:
    def test_paper_impressions_per_campaign(self):
        """Within-campaign error of 0.1 CPM needs ~185 impressions.

        The paper derives 185 from the largest MoPub campaign's price
        spread; a std of ~0.693 CPM reproduces that number.
        """
        assert required_samples(std=0.693, margin=0.1) == 185

    def test_inverse_of_margin(self):
        n = required_samples(std=2.0, margin=0.3)
        assert margin_of_error(2.0, n) <= 0.3
        assert margin_of_error(2.0, n - 1) > 0.3

    @given(st.floats(0.1, 5), st.floats(0.01, 1))
    def test_monotone_in_margin(self, std, margin):
        assert required_samples(std, margin) >= required_samples(std, margin * 2)


class TestCampaignSizing:
    def test_design_matches_paper(self):
        sizing = CampaignSizing.design(
            campaign_mean=1.84,
            campaign_std=2.15,
            within_campaign_std=0.693,
        )
        assert sizing.n_setups == 144
        assert sizing.setup_margin == pytest.approx(0.35, abs=0.01)
        assert sizing.impressions_per_campaign == 185
