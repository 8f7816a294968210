"""Tests for cost-model sensitivity and transparency reporting."""

import pytest

from repro.core.costmodels import (
    CostBounds,
    CostModelAssumptions,
    cost_bounds,
)
from repro.core.reporting import render_transparency_report
from repro.core.youradvalue import LedgerEntry


class TestCostModelAssumptions:
    def test_pure_cpm_multiplier_is_one(self):
        assumptions = CostModelAssumptions(cpc_share=0.0)
        assert assumptions.expected_multiplier == 1.0

    def test_pure_cpc_multiplier_is_ctr(self):
        assumptions = CostModelAssumptions(cpc_share=1.0, click_through_rate=0.01)
        assert assumptions.expected_multiplier == pytest.approx(0.01)
        assert assumptions.lower_multiplier == pytest.approx(0.01)

    def test_mix_interpolates(self):
        assumptions = CostModelAssumptions(cpc_share=0.5, click_through_rate=0.01)
        assert assumptions.expected_multiplier == pytest.approx(0.505)

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            CostModelAssumptions(cpc_share=1.5)
        with pytest.raises(ValueError):
            CostModelAssumptions(click_through_rate=-0.1)


class TestCostBounds:
    def test_ordering(self):
        bounds = cost_bounds(100.0)
        assert bounds.lower <= bounds.expected <= bounds.upper
        assert bounds.upper == 100.0

    def test_zero_cost(self):
        bounds = cost_bounds(0.0)
        assert bounds.lower == bounds.expected == bounds.upper == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            cost_bounds(-1.0)

    def test_paper_upper_bound_semantics(self):
        """The paper's V_u is exactly the CPM-assumption upper bound."""
        bounds = cost_bounds(25.0, CostModelAssumptions())
        assert bounds.cpm_assumption == bounds.upper == 25.0
        assert bounds.expected < 25.0


def make_entry(amount=1.0, encrypted=False, adx="MoPub", iab="IAB12",
               slot="300x250", ts=1.43e9):
    return LedgerEntry(
        timestamp=ts,
        adx=adx,
        dsp="Criteo-DSP",
        encrypted=encrypted,
        amount_cpm=amount,
        estimated=encrypted,
        slot_size=slot,
        publisher_iab=iab,
    )


class TestTransparencyReport:
    def test_empty_ledger(self):
        assert "No RTB charge prices" in render_transparency_report([])

    def test_totals_and_sections(self):
        entries = [
            make_entry(1.0),
            make_entry(2.0, adx="OpenX", encrypted=True, iab="IAB3"),
            make_entry(0.5, slot="320x50"),
        ]
        report = render_transparency_report(entries)
        assert "3.50 CPM" in report
        assert "MoPub" in report and "OpenX" in report
        assert "IAB3" in report
        assert "320x50" in report
        assert "estimated" in report          # encrypted note present
        assert "cost-model sensitivity" in report

    def test_no_encrypted_note_when_all_cleartext(self):
        report = render_transparency_report([make_entry(1.0)])
        assert "estimated from" not in report

    def test_regulator_report(self):
        from repro.core.cost import ExchangeRevenue
        from repro.core.reporting import render_regulator_report

        revenues = {
            "MoPub": ExchangeRevenue("MoPub", 100.0, 0.0, 200, 0),
            "OpenX": ExchangeRevenue("OpenX", 5.0, 45.0, 10, 60),
        }
        report = render_regulator_report(revenues)
        assert "MoPub" in report and "OpenX" in report
        assert "150.00 CPM" in report          # grand total
        assert report.index("MoPub") < report.index("OpenX")  # ranked
        assert render_regulator_report({}) == "No exchange revenue observed."

    def test_top_k_limits_groups(self):
        entries = [make_entry(1.0, adx=adx) for adx in
                   ("MoPub", "OpenX", "Rubicon", "Turn", "Adnxs", "Criteo")]
        report = render_transparency_report(entries, top_k=2)
        # Only the 2 largest exchange lines appear in that section.
        exchange_section = report.split("(top exchanges):")[1].split("by content")[0]
        assert exchange_section.count("1.00 CPM") == 2
