"""Edge-case coverage across small utility surfaces."""

import json

import pytest

from repro.cli import main
from repro.io import read_observations_csv, save_model_package


class TestIoEdges:
    def test_observations_missing_columns(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("timestamp,user_id\n1.0,u1\n")
        with pytest.raises(ValueError, match="missing columns"):
            read_observations_csv(path)

    def test_model_package_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.json.gz"
        import gzip

        with gzip.open(path, "wt") as handle:
            handle.write(json.dumps({"kind": "something"}))
        from repro.io import load_model_package

        with pytest.raises(ValueError):
            load_model_package(path)


class TestCliEdges:
    def _tiny_model(self, tmp_path):
        import numpy as np

        from repro.core.estimator import Estimator

        rows = [{"a": i % 3} for i in range(30)]
        prices = list(np.linspace(0.1, 5.0, 30))
        model = Estimator.train(
            rows, prices, n_estimators=2, max_depth=3, seed=0
        )
        path = tmp_path / "m.json"
        save_model_package(model.to_package(), path)
        return path

    def test_estimate_rejects_non_object_features(self, tmp_path):
        model_path = self._tiny_model(tmp_path)
        assert main(
            ["estimate", "--model", str(model_path), "--features", "[1,2]"]
        ) == 2

    def test_estimate_happy_path(self, tmp_path, capsys):
        model_path = self._tiny_model(tmp_path)
        assert main(
            ["estimate", "--model", str(model_path), "--features", '{"a": 1}']
        ) == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["estimated_cpm"] > 0

    def test_simulate_without_directory(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        assert main(
            ["simulate", "--scale", "0.004", "--seed", "9", "--out", str(out)]
        ) == 0
        assert out.exists()
        assert "directory" not in capsys.readouterr().out.split("wrote")[0]
