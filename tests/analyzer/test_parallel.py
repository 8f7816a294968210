"""Tests for the sharded parallel analyzer (result equivalence).

The contract under test: for any weblog, ``analyze_parallel`` must
produce the same observations (in the same order), traffic histogram,
notifications, and per-user aggregates as the sequential single-pass
``WeblogAnalyzer.analyze``.  The determinism gate is marked ``tier1``
so parallel-merge regressions fail fast.
"""

from dataclasses import fields

import pytest

from repro.analyzer.features import FeatureExtractor
from repro.analyzer.blacklist import default_blacklist
from repro.analyzer.geoip import GeoIpResolver
from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.parallel import (
    ShardPartial,
    analyze_parallel,
    merge_partials,
    shard_of,
)
from repro.analyzer.pipeline import WeblogAnalyzer
from repro.trace.simulate import SimulationConfig, simulate_dataset
from tests.analyzer.reference import per_user_cleartext_totals


@pytest.fixture(scope="module")
def dataset():
    return simulate_dataset(
        SimulationConfig(
            n_users=40, target_auctions=600, n_web_publishers=30,
            n_app_publishers=15, n_advertisers=8, seed=11,
        )
    )


@pytest.fixture(scope="module")
def directory(dataset):
    return PublisherDirectory.from_universe(dataset.universe)


@pytest.fixture(scope="module")
def sequential(dataset, directory):
    return WeblogAnalyzer(directory).analyze(dataset.rows)


@pytest.fixture(scope="module")
def parallel4(dataset, directory):
    # Small chunks force multiple chunks per shard, exercising the
    # in-order partial merge.
    return analyze_parallel(dataset.rows, directory, workers=4, chunk_size=200)


def _assert_user_aggregates_equal(a, b):
    for f in fields(a):
        va, vb = getattr(a, f.name), getattr(b, f.name)
        if isinstance(va, float):
            # Chunked merging may re-associate float sums (~1 ulp).
            assert va == pytest.approx(vb, rel=1e-9), f.name
        else:
            assert va == vb, f.name


class TestShardOf:
    def test_stable_across_calls(self):
        assert shard_of("u00001", 4) == shard_of("u00001", 4)

    def test_in_range_and_spread(self):
        shards = {shard_of(f"u{i:05d}", 4) for i in range(200)}
        assert shards == {0, 1, 2, 3}

    def test_not_process_salted(self):
        # crc32 is deterministic; a salted hash() would flap between
        # interpreters and break cross-process sharding.
        assert shard_of("u00042", 8) == 1


class TestParallelEquivalence:
    @pytest.mark.tier1
    def test_observations_identical_2_workers(self, dataset, directory, sequential):
        """Determinism gate: sequential vs 2-worker runs over the seed
        simulator produce identical observation lists."""
        par = analyze_parallel(dataset.rows, directory, workers=2, chunk_size=300)
        assert sorted(
            par.observations, key=lambda o: (o.timestamp, o.user_id)
        ) == sorted(
            sequential.observations, key=lambda o: (o.timestamp, o.user_id)
        )
        # Stronger than the sorted check: emission order is preserved.
        assert par.observations == sequential.observations

    def test_observations_identical_4_workers(self, sequential, parallel4):
        assert parallel4.observations == sequential.observations

    def test_traffic_counts_identical(self, sequential, parallel4):
        assert parallel4.traffic_counts == sequential.traffic_counts

    def test_notifications_identical(self, sequential, parallel4):
        assert [d.parsed for d in parallel4.notifications] == [
            d.parsed for d in sequential.notifications
        ]
        assert [d.row for d in parallel4.notifications] == [
            d.row for d in sequential.notifications
        ]

    def test_per_user_totals_identical(self, sequential, parallel4):
        assert (
            per_user_cleartext_totals(parallel4)
            == per_user_cleartext_totals(sequential)
        )

    def test_user_aggregates_match(self, sequential, parallel4):
        assert set(parallel4.extractor.users) == set(sequential.extractor.users)
        for user_id, seq_agg in sequential.extractor.users.items():
            _assert_user_aggregates_equal(seq_agg, parallel4.extractor.users[user_id])

    def test_advertiser_and_campaign_aggregates_match(self, sequential, parallel4):
        seq_x, par_x = sequential.extractor, parallel4.extractor
        assert set(par_x.advertisers) == set(seq_x.advertisers)
        for adv, seq_agg in seq_x.advertisers.items():
            par_agg = par_x.advertisers[adv]
            assert par_agg.n_requests == seq_agg.n_requests
            assert par_agg.users == seq_agg.users
        assert par_x.campaign_counts == seq_x.campaign_counts

    def test_workers_one_is_sequential_path(self, dataset, directory, sequential):
        par = analyze_parallel(dataset.rows, directory, workers=1)
        assert par.observations == sequential.observations
        assert par.traffic_counts == sequential.traffic_counts

    def test_accepts_row_iterator(self, dataset, directory, sequential):
        par = analyze_parallel(
            iter(dataset.rows), directory, workers=2, chunk_size=500
        )
        assert par.observations == sequential.observations

    def test_analyze_workers_kwarg_threads_through(
        self, dataset, directory, sequential
    ):
        par = WeblogAnalyzer(directory).analyze(
            dataset.rows, workers=2, chunk_size=400
        )
        assert par.observations == sequential.observations

    def test_rejects_bad_chunk_size(self, dataset, directory):
        with pytest.raises(ValueError):
            analyze_parallel(dataset.rows, directory, workers=2, chunk_size=0)


class TestMergePartials:
    def test_empty_inputs_yield_empty_result(self, directory):
        blacklist = default_blacklist()
        geoip = GeoIpResolver()
        result = merge_partials((), blacklist, directory, geoip)
        assert result.observations == []
        assert result.traffic_counts == {}
        assert result.entity_rtb_shares() == {}

    def test_partials_merge_in_chunk_order(self, directory):
        """Out-of-order delivery must not scramble per-shard state."""
        from collections import Counter

        blacklist = default_blacklist()
        geoip = GeoIpResolver()
        first = ShardPartial(
            shard=0, seq=0, traffic_counts=Counter({"rest": 2}),
            notifications=[], observations=[],
            extractor=FeatureExtractor.incremental(blacklist, directory, geoip),
        )
        second = ShardPartial(
            shard=0, seq=1, traffic_counts=Counter({"rest": 1}),
            notifications=[], observations=[],
            extractor=FeatureExtractor.incremental(blacklist, directory, geoip),
        )
        merged = merge_partials((second, first), blacklist, directory, geoip)
        assert merged.traffic_counts == Counter({"rest": 3})
