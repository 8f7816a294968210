"""Tests for file persistence and the CLI."""

import gzip
import json

import pytest

from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.pipeline import WeblogAnalyzer
from repro.cli import main
from repro.io import (
    iter_weblog_csv,
    load_model_package,
    read_directory_csv,
    read_observations_csv,
    save_model_package,
    write_directory_csv,
    write_observations_csv,
    write_weblog_csv,
)
from repro.trace.simulate import SimulationConfig, simulate_dataset


@pytest.fixture(scope="module")
def dataset():
    return simulate_dataset(
        SimulationConfig(
            n_users=30, target_auctions=400, n_web_publishers=30,
            n_app_publishers=15, n_advertisers=8, seed=5,
        )
    )


class TestWeblogRoundtrip:
    def test_plain_csv(self, dataset, tmp_path):
        path = tmp_path / "weblog.csv"
        count = write_weblog_csv(dataset.rows, path)
        rows = list(iter_weblog_csv(path))
        assert count == len(dataset.rows) == len(rows)
        assert rows[0] == dataset.rows[0]
        assert rows[-1] == dataset.rows[-1]

    def test_gzip_csv(self, dataset, tmp_path):
        path = tmp_path / "weblog.csv.gz"
        write_weblog_csv(dataset.rows[:50], path)
        with gzip.open(path, "rt") as handle:
            header = handle.readline()
        assert header.startswith("timestamp,")
        assert list(iter_weblog_csv(path)) == dataset.rows[:50]

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,user_id\n1.0,u1\n")
        with pytest.raises(ValueError, match="missing columns"):
            list(iter_weblog_csv(path))


class TestObservationsRoundtrip:
    def test_roundtrip(self, dataset, tmp_path):
        directory = PublisherDirectory.from_universe(dataset.universe)
        analysis = WeblogAnalyzer(directory).analyze(dataset.rows)
        path = tmp_path / "obs.csv"
        count = write_observations_csv(analysis.observations, path)
        observations = read_observations_csv(path)
        assert count == len(observations) == len(analysis.observations)
        assert observations[0] == analysis.observations[0]


class TestDirectoryRoundtrip:
    def test_roundtrip(self, dataset, tmp_path):
        directory = PublisherDirectory.from_universe(dataset.universe)
        path = tmp_path / "dir.csv"
        entries = write_directory_csv(directory, path)
        clone = read_directory_csv(path)
        assert entries == len(directory) == len(clone)
        domain, category = directory.items()[0]
        assert clone.category_of(domain) == category


class TestModelPackageIo:
    def _package(self, dataset):
        from repro.core.pme import PAPER_FEATURE_SET
        from repro.core.estimator import Estimator

        directory = PublisherDirectory.from_universe(dataset.universe)
        analysis = WeblogAnalyzer(directory).analyze(dataset.rows)
        rows = []
        prices = []
        from repro.core.cost import observation_features

        for obs in analysis.cleartext():
            rows.append(observation_features(obs))
            prices.append(obs.price_cpm)
        model = Estimator.train(
            rows, prices, feature_names=list(PAPER_FEATURE_SET),
            seed=1, n_estimators=5, max_depth=6,
        )
        return model.to_package()

    def test_json_roundtrip(self, dataset, tmp_path):
        package = self._package(dataset)
        path = tmp_path / "model.json"
        save_model_package(package, path)
        assert load_model_package(path) == package

    def test_gzip_roundtrip(self, dataset, tmp_path):
        package = self._package(dataset)
        path = tmp_path / "model.json.gz"
        save_model_package(package, path)
        assert load_model_package(path) == package

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "other"}')
        with pytest.raises(ValueError):
            load_model_package(path)


class TestCli:
    def test_simulate_then_analyze(self, tmp_path, capsys):
        weblog = tmp_path / "weblog.csv.gz"
        directory = tmp_path / "dir.csv"
        observations = tmp_path / "obs.csv"
        assert main([
            "simulate", "--scale", "0.005", "--seed", "3",
            "--out", str(weblog), "--directory", str(directory),
        ]) == 0
        assert weblog.exists() and directory.exists()

        assert main([
            "analyze", "--weblog", str(weblog),
            "--directory", str(directory), "--out", str(observations),
        ]) == 0
        out = capsys.readouterr().out
        assert "price observations" in out
        assert read_observations_csv(observations)

    def test_analyze_parallel_workers_match_sequential(self, tmp_path, capsys):
        weblog = tmp_path / "weblog.csv.gz"
        directory = tmp_path / "dir.csv"
        obs_seq = tmp_path / "obs_seq.csv"
        obs_par = tmp_path / "obs_par.csv"
        assert main([
            "simulate", "--scale", "0.005", "--seed", "9",
            "--out", str(weblog), "--directory", str(directory),
        ]) == 0
        assert main([
            "analyze", "--weblog", str(weblog),
            "--directory", str(directory), "--out", str(obs_seq),
        ]) == 0
        assert main([
            "analyze", "--weblog", str(weblog),
            "--directory", str(directory), "--out", str(obs_par),
            "--workers", "2", "--chunk-size", "500",
        ]) == 0
        capsys.readouterr()
        # The sharded parallel CLI path is byte-identical to sequential.
        assert obs_par.read_text() == obs_seq.read_text()

    def test_analyze_rejects_bad_flags(self, tmp_path):
        assert main([
            "analyze", "--weblog", "w.csv", "--directory", "d.csv",
            "--out", "o.csv", "--workers", "0",
        ]) == 2
        assert main([
            "analyze", "--weblog", "w.csv", "--directory", "d.csv",
            "--out", "o.csv", "--chunk-size", "0",
        ]) == 2

    def test_pipeline_and_estimate(self, tmp_path, capsys):
        model_path = tmp_path / "model.json.gz"
        assert main([
            "pipeline", "--scale", "0.02", "--seed", "4",
            "--model", str(model_path),
        ]) == 0
        assert model_path.exists()

        features = json.dumps({
            "context": "app", "device_type": "smartphone", "city": "Madrid",
            "time_of_day": 2, "day_of_week": 1, "slot_size": "300x250",
            "publisher_iab": "IAB3", "adx": "DoubleClick", "os": "iOS",
            "publisher": "x.example.es",
        })
        assert main([
            "estimate", "--model", str(model_path), "--features", features,
        ]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["estimated_cpm"] > 0

    def test_estimate_rejects_bad_json(self, tmp_path):
        model_path = tmp_path / "model.json"
        # Build the tiniest valid package so the features-JSON
        # validation path is what fires.
        import numpy as np
        from repro.core.estimator import Estimator

        rows = [{"a": i % 3} for i in range(30)]
        prices = list(np.linspace(0.1, 5.0, 30))
        model = Estimator.train(
            rows, prices, n_estimators=2, max_depth=3, seed=0
        )
        save_model_package(model.to_package(), model_path)
        assert main([
            "estimate", "--model", str(model_path), "--features", "{not json",
        ]) == 2
