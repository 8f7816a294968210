"""Tests for the YourAdValue client and the contribution channel."""

import pytest

from repro.analyzer.interests import PublisherDirectory
from repro.core.contributions import ContributionError, ContributionServer
from repro.core.youradvalue import YourAdValue
from repro.core.campaigns import run_campaign_a1
from repro.core.estimator import Estimator
from repro.trace.simulate import build_market, simulate_dataset, small_config
from repro.util.rng import RngRegistry


@pytest.fixture(scope="module")
def environment():
    config = small_config()
    dataset = simulate_dataset(config)
    market = build_market(config, RngRegistry(config.seed))
    campaign = run_campaign_a1(market, seed=17, auctions_per_setup=15)
    rows = campaign.feature_rows()
    model = Estimator.train(
        rows,
        list(campaign.prices()),
        feature_names=[k for k in rows[0] if k != "publisher"],
        seed=9,
        n_estimators=20,
        max_depth=12,
    )
    package = model.to_package()
    directory = PublisherDirectory.from_universe(dataset.universe)
    return dataset, package, directory


@pytest.fixture()
def client(environment):
    dataset, package, directory = environment
    return YourAdValue(package, directory)


def rows_for_user(dataset, user_id):
    return [r for r in dataset.rows if r.user_id == user_id]


def busiest_user(dataset):
    from collections import Counter

    counts = Counter(i.user_id for i in dataset.impressions)
    return counts.most_common(1)[0][0]


class TestYourAdValue:
    def test_tallies_only_nurls(self, environment, client):
        dataset, _, _ = environment
        user = busiest_user(dataset)
        found = client.observe_many(rows_for_user(dataset, user))
        truth = sum(1 for i in dataset.impressions if i.user_id == user)
        assert found == truth
        assert len(client.ledger) == truth

    def test_cleartext_sums_match_truth(self, environment, client):
        dataset, _, _ = environment
        user = busiest_user(dataset)
        client.observe_many(rows_for_user(dataset, user))
        summary = client.summary()
        truth_clr = sum(
            i.charge_price_cpm
            for i in dataset.impressions
            if i.user_id == user and not i.is_encrypted
        )
        assert summary.cleartext_cpm == pytest.approx(truth_clr, rel=1e-4)

    def test_encrypted_entries_are_estimates(self, environment, client):
        dataset, _, _ = environment
        user = busiest_user(dataset)
        client.observe_many(rows_for_user(dataset, user))
        enc_entries = [e for e in client.ledger if e.encrypted]
        assert enc_entries
        assert all(e.estimated and e.amount_cpm > 0 for e in enc_entries)

    def test_estimated_encrypted_total_tracks_truth(self, environment, client):
        dataset, _, _ = environment
        user = busiest_user(dataset)
        client.observe_many(rows_for_user(dataset, user))
        truth_enc = sum(
            i.charge_price_cpm
            for i in dataset.impressions
            if i.user_id == user and i.is_encrypted
        )
        if truth_enc > 1.0:
            estimated = client.summary().encrypted_estimated_cpm
            assert 0.3 * truth_enc < estimated < 3.0 * truth_enc

    def test_headline_mentions_counts(self, environment, client):
        dataset, _, _ = environment
        user = busiest_user(dataset)
        client.observe_many(rows_for_user(dataset, user))
        headline = client.summary().headline()
        assert "Advertisers paid" in headline
        assert "CPM" in headline

    def test_content_rows_ignored(self, environment, client):
        dataset, _, _ = environment
        content = [r for r in dataset.rows if r.kind == "content"][:200]
        assert client.observe_many(content) == 0

    def test_model_update_only_upgrades(self, environment, client):
        _, package, _ = environment
        same = dict(package)
        assert not client.check_for_update(same)
        newer = dict(package)
        newer["version"] = 2
        assert client.check_for_update(newer)
        assert client.model_version == 2

    @pytest.mark.tier1
    def test_update_estimates_with_the_new_model(self, environment, client):
        # A newer package with a smaller forest and a doubled time
        # correction: after the update every encrypted ledger amount is
        # that package's estimate, not the installed model's.
        dataset, package, directory = environment
        forest = dict(package["forest"], trees=package["forest"]["trees"][:3])
        forest["params"] = dict(forest["params"], n_estimators=3)
        newer = dict(package, version=2, forest=forest,
                     time_correction=2 * package["time_correction"])
        rows = rows_for_user(dataset, busiest_user(dataset))

        assert client.check_for_update(newer)
        client.observe_many(rows)
        fresh = YourAdValue(newer, directory)
        fresh.observe_many(rows)
        stale = YourAdValue(package, directory)
        stale.observe_many(rows)

        def amounts(yav):
            return [e.amount_cpm for e in yav.ledger if e.encrypted]

        assert amounts(client)
        assert amounts(client) == amounts(fresh)
        assert amounts(client) != [2 * a for a in amounts(stale)]
        assert client.estimator.time_correction == newer["time_correction"]
        assert len(client.estimator.forest.trees_) == 3

    def test_contribution_records_are_anonymous(self, environment, client):
        dataset, _, _ = environment
        user = busiest_user(dataset)
        client.observe_many(rows_for_user(dataset, user))
        records = client.contribution_records()
        assert records
        for record in records:
            assert "user_id" not in record
            assert "url" not in record
            assert record["price_cpm"] > 0


class TestContributionServer:
    def good_record(self, **overrides):
        record = {
            "adx": "MoPub",
            "dsp": "Criteo-DSP",
            "slot_size": "300x250",
            "publisher_iab": "IAB12",
            "hour_of_day": 10,
            "day_of_week": 2,
            "price_cpm": 0.8,
        }
        record.update(overrides)
        return record

    def test_accepts_valid_record(self):
        server = ContributionServer()
        assert server.submit(self.good_record(), contributor_token=1)

    def test_rejects_identifying_fields(self):
        server = ContributionServer()
        with pytest.raises(ContributionError, match="identifying"):
            server.submit(self.good_record(user_id="u1"), 1)

    def test_rejects_unknown_fields(self):
        server = ContributionServer()
        with pytest.raises(ContributionError, match="unknown"):
            server.submit(self.good_record(extra="x"), 1)

    def test_rejects_implausible_price(self):
        server = ContributionServer()
        with pytest.raises(ContributionError):
            server.submit(self.good_record(price_cpm=1e9), 1)
        with pytest.raises(ContributionError):
            server.submit(self.good_record(price_cpm="free"), 1)

    def test_k_anonymity_gate(self):
        server = ContributionServer(k_anonymity=3)
        for token in (1, 2):
            server.submit(self.good_record(), token)
        rows, prices = server.training_rows()
        assert rows == []
        server.submit(self.good_record(), 3)
        rows, prices = server.training_rows()
        assert len(rows) == 3
        assert all(p == 0.8 for p in prices)

    def test_same_contributor_does_not_satisfy_k(self):
        server = ContributionServer(k_anonymity=2)
        for _ in range(5):
            server.submit(self.good_record(), contributor_token=42)
        assert server.training_rows()[0] == []

    def test_batch_submission_counts(self):
        server = ContributionServer()
        batch = [self.good_record(), self.good_record(price_cpm=-5)]
        assert server.submit_batch(batch, 1) == 1

    def test_stats(self):
        server = ContributionServer()
        server.submit(self.good_record(), 1)
        stats = server.stats
        assert stats["accepted"] == 1
        assert stats["stored"] == 1

    def test_training_rows_schema(self):
        server = ContributionServer(k_anonymity=1)
        server.submit(self.good_record(), 1)
        rows, _ = server.training_rows()
        assert rows[0]["time_of_day"] == 2  # hour 10 -> bucket 2
        assert rows[0]["adx"] == "MoPub"
