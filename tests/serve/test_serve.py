"""Real-socket integration tests for the PME serving subsystem.

Every test starts a :class:`repro.serve.PmeServer` on an ephemeral
127.0.0.1 port and talks to it through the stdlib client of ``benchmarks/loadgen.py``, so
client and server framing are exercised against each other end to end
(the CLI smoke test additionally covers urllib interop).
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.campaigns import run_campaign_a1
from repro.core.contributions import ContributionServer
from repro.core.estimator import Estimator
from repro.core.pme import PriceModelingEngine
from repro.serve import PmeServer
from repro.trace.simulate import build_market, small_config
from repro.util.rng import RngRegistry, derive_seed
from benchmarks.loadgen import Connection, run_load

TIME_CORRECTION = 1.21


def synthetic_rows(n: int, seed: int = 5) -> tuple[list[dict], list[float]]:
    rng = np.random.default_rng(seed)
    vocab = {
        "context": ["app", "web"],
        "device_type": ["smartphone", "tablet"],
        "city": ["Madrid", "Paris", "Milan"],
        "slot_size": ["320x50", "300x250", "728x90"],
        "publisher_iab": ["IAB3", "IAB9", "IAB12"],
        "adx": ["AdX-1", "AdX-2"],
    }
    rows = []
    for _ in range(n):
        row = {k: v[int(rng.integers(0, len(v)))] for k, v in vocab.items()}
        row["time_of_day"] = int(rng.integers(0, 6))
        row["day_of_week"] = int(rng.integers(0, 7))
        rows.append(row)
    prices = np.exp(rng.normal(0.0, 1.0, size=n)).tolist()
    return rows, prices


async def request_once(host, port, method, path, body=None, headers=None):
    """One-shot request: open a connection, send, close."""
    conn = Connection(host, port)
    try:
        return await conn.request(method, path, body=body, headers=headers)
    finally:
        await conn.close()


def registry_of(metrics: dict) -> dict:
    """The ``serve.*`` registry series of a ``GET /metrics`` payload."""
    return metrics["obs"]["metrics"]


def flush_sizes(metrics: dict) -> dict[int, int]:
    """``{batch size: flush count}`` from the labelled flush counter."""
    series = registry_of(metrics)["serve.batch.flushes"].get("series", {})
    return {
        int(key.split("=", 1)[1]): int(n) for key, n in series.items()
    }


@pytest.fixture(scope="module")
def package():
    """A small packaged model carrying a non-trivial time correction."""
    rows, prices = synthetic_rows(300)
    model = Estimator.train(
        rows, prices, n_estimators=12, max_depth=8, seed=3
    )
    pkg = model.to_package()
    pkg["time_correction"] = TIME_CORRECTION
    return pkg


@pytest.fixture(scope="module")
def feature_rows(package):
    rows, _ = synthetic_rows(120, seed=11)
    return rows


@pytest.fixture(scope="module")
def pme_with_campaign():
    """A PME holding real campaign ground truth (retrain enabled)."""
    config = small_config()
    market = build_market(config, RngRegistry(config.seed))
    campaign = run_campaign_a1(market, seed=23, auctions_per_setup=5)
    pme = PriceModelingEngine(seed=23)
    pme.state.campaign_a1 = campaign
    rows = campaign.feature_rows()
    pme.state.selected_features = [k for k in rows[0] if k != "publisher"]
    pme.state.model = Estimator.train(
        rows,
        list(campaign.prices()),
        feature_names=pme.state.selected_features,
        n_estimators=15,
        max_depth=10,
        seed=derive_seed(23, "model"),
    )
    pme.state.time_correction = TIME_CORRECTION
    return pme


def serve(coro_factory, **server_kwargs):
    """Start a server, run the scenario coroutine against it, stop."""

    async def main():
        server = PmeServer(**server_kwargs)
        await server.start(port=0)
        try:
            return await coro_factory(server)
        finally:
            await server.stop()

    return asyncio.run(main())


def estimate_body(features: dict) -> bytes:
    return json.dumps({"features": features}).encode("utf-8")


class TestModelDistribution:
    def test_model_fetch_and_etag_304(self, package):
        async def scenario(server):
            first = await request_once(
                "127.0.0.1", server.port, "GET", "/model"
            )
            assert first.status == 200
            etag = first.headers["etag"]
            assert etag.startswith('"') and etag.endswith('"')
            assert first.headers["x-model-version"] == "1"
            served = json.loads(first.body.decode())
            assert served["kind"] == "yav_price_model"
            assert served["time_correction"] == TIME_CORRECTION

            again = await request_once(
                "127.0.0.1", server.port, "GET", "/model",
                headers={"If-None-Match": etag},
            )
            assert again.status == 304
            assert again.body == b""
            assert again.headers["etag"] == etag

            stale = await request_once(
                "127.0.0.1", server.port, "GET", "/model",
                headers={"If-None-Match": '"deadbeef"'},
            )
            assert stale.status == 200
            return True

        assert serve(scenario, package=package)

    def test_served_package_round_trips_into_client_model(self, package):
        async def scenario(server):
            response = await request_once(
                "127.0.0.1", server.port, "GET", "/model"
            )
            model = Estimator.from_package(
                json.loads(response.body.decode())
            )
            assert model.time_correction == TIME_CORRECTION
            return True

        assert serve(scenario, package=package)


@pytest.mark.tier1
class TestEstimation:
    def test_concurrent_estimates_bit_identical_to_in_process(
        self, package, feature_rows
    ):
        """>= 64 concurrent requests == direct estimate_one, bit for bit.

        The reference model is loaded from the same package the server
        holds, so the comparison covers the whole chain: package round
        trip (time correction included), micro-batched vectorised
        scoring, JSON float round trip.
        """
        reference = Estimator.from_package(package)
        expected = [reference.estimate_one(row) for row in feature_rows[:80]]
        assert any(e != pytest.approx(1.0) for e in expected)

        async def scenario(server):
            responses = await asyncio.gather(
                *(
                    request_once(
                        "127.0.0.1", server.port, "POST", "/estimate",
                        body=estimate_body(row),
                    )
                    for row in feature_rows[:80]
                )
            )
            assert all(r.status == 200 for r in responses)
            got = [r.json()["estimated_cpm"] for r in responses]
            # Bit-identical: JSON serialises the shortest round-trip
            # repr, so equality here is exact float equality.
            assert got == expected

            metrics = (
                await request_once("127.0.0.1", server.port, "GET", "/metrics")
            ).json()
            histogram = flush_sizes(metrics)
            assert sum(k * v for k, v in histogram.items()) == 80
            assert max(histogram) > 1, (
                "concurrent requests never coalesced into a batch"
            )
            return True

        assert serve(
            scenario, package=package, max_batch=32, max_delay_ms=5.0
        )

    def test_time_correction_applied_on_estimates(self, package, feature_rows):
        """The served estimate is the raw class price x the coefficient."""
        raw = dict(package)
        raw["time_correction"] = 1.0
        uncorrected = Estimator.from_package(raw)

        async def scenario(server):
            row = feature_rows[0]
            response = await request_once(
                "127.0.0.1", server.port, "POST", "/estimate",
                body=estimate_body(row),
            )
            served = response.json()["estimated_cpm"]
            assert served == pytest.approx(
                uncorrected.estimate_one(row) * TIME_CORRECTION
            )
            return True

        assert serve(scenario, package=package)

    def test_batching_off_still_correct(self, package, feature_rows):
        reference = Estimator.from_package(package)

        async def scenario(server):
            responses = await asyncio.gather(
                *(
                    request_once(
                        "127.0.0.1", server.port, "POST", "/estimate",
                        body=estimate_body(row),
                    )
                    for row in feature_rows[:16]
                )
            )
            got = [r.json()["estimated_cpm"] for r in responses]
            assert got == [
                reference.estimate_one(row) for row in feature_rows[:16]
            ]
            metrics = (
                await request_once("127.0.0.1", server.port, "GET", "/metrics")
            ).json()
            assert set(flush_sizes(metrics)) == {1}
            return True

        assert serve(scenario, package=package, max_batch=1)


class TestRobustness:
    def test_malformed_and_unknown_requests(self, package):
        async def scenario(server):
            bad_json = await request_once(
                "127.0.0.1", server.port, "POST", "/estimate", body=b"{nope"
            )
            assert bad_json.status == 400

            not_dict = await request_once(
                "127.0.0.1", server.port, "POST", "/estimate",
                body=json.dumps({"features": [1, 2]}).encode(),
            )
            assert not_dict.status == 400

            missing = await request_once(
                "127.0.0.1", server.port, "GET", "/nope"
            )
            assert missing.status == 404

            wrong_method = await request_once(
                "127.0.0.1", server.port, "GET", "/estimate"
            )
            assert wrong_method.status == 405
            assert wrong_method.headers["allow"] == "POST"
            return True

        assert serve(scenario, package=package)

    def test_garbage_request_line_closes_with_400(self, package):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"THIS IS NOT HTTP\r\n\r\n")
            await writer.drain()
            head = await reader.readuntil(b"\r\n\r\n")
            assert b"400" in head.split(b"\r\n", 1)[0]
            assert b"Connection: close" in head
            writer.close()
            await writer.wait_closed()
            return True

        assert serve(scenario, package=package)

    def test_oversized_body_rejected_413(self, package):
        async def scenario(server):
            huge = b"x" * 5000
            response = await request_once(
                "127.0.0.1", server.port, "POST", "/estimate", body=huge
            )
            assert response.status == 413
            return True

        assert serve(scenario, package=package, max_body_bytes=4096)

    def test_unknown_categories_still_estimate(self, package):
        """Unseen category values encode to -1, never 500."""

        async def scenario(server):
            response = await request_once(
                "127.0.0.1", server.port, "POST", "/estimate",
                body=estimate_body(
                    {"adx": "NeverSeen", "city": "Atlantis"}
                ),
            )
            assert response.status == 200
            assert response.json()["estimated_cpm"] > 0
            return True

        assert serve(scenario, package=package)

    def test_keep_alive_connection_reuse(self, package, feature_rows):
        async def scenario(server):
            conn = Connection("127.0.0.1", server.port)
            try:
                for row in feature_rows[:5]:
                    response = await conn.request(
                        "POST", "/estimate", body=estimate_body(row)
                    )
                    assert response.status == 200
                health = await conn.request("GET", "/healthz")
                assert health.status == 200
            finally:
                await conn.close()
            return True

        assert serve(scenario, package=package)


class TestObservability:
    def test_healthz_and_metrics_shape(self, package, feature_rows):
        async def scenario(server):
            health = (
                await request_once("127.0.0.1", server.port, "GET", "/healthz")
            ).json()
            assert health["status"] == "ok"
            assert health["model_version"] == 1

            await request_once(
                "127.0.0.1", server.port, "POST", "/estimate",
                body=estimate_body(feature_rows[0]),
            )
            metrics = (
                await request_once("127.0.0.1", server.port, "GET", "/metrics")
            ).json()
            # One shape: request/estimate counts live only as registry
            # series under ``obs``.
            assert set(metrics) == {"model", "contributions", "retrain", "obs"}
            reg = registry_of(metrics)
            assert reg["serve.requests"]["series"]["route=/estimate"] == 1
            assert reg["serve.responses"]["series"]["status=2xx"] >= 2
            assert reg["serve.estimates"]["total"] == 1
            latency = reg["serve.estimate.latency_seconds"]
            assert latency["count"] == 1
            assert {"p50", "p90", "p99"} <= set(latency)
            assert metrics["model"]["version"] == 1
            assert metrics["model"]["age_seconds"] >= 0
            assert metrics["contributions"]["accepted"] == 0
            assert metrics["retrain"]["enabled"] is False
            return True

        assert serve(scenario, package=package)

    def test_metrics_obs_section_carries_registry_and_trace(
        self, package, feature_rows
    ):
        """The /metrics ``obs`` section exposes the registry snapshot
        and the last micro-batch flush trace end to end: queue-wait,
        batch-flush, and the estimator's internal phase spans."""

        async def scenario(server):
            await asyncio.gather(
                *(
                    request_once(
                        "127.0.0.1", server.port, "POST", "/estimate",
                        body=estimate_body(row),
                    )
                    for row in feature_rows[:8]
                )
            )
            metrics = (
                await request_once("127.0.0.1", server.port, "GET", "/metrics")
            ).json()
            section = metrics["obs"]
            reg = section["metrics"]
            # the in-flight GET /metrics already counted itself
            assert reg["serve.requests"]["series"]["route=/estimate"] == 8
            assert reg["serve.estimates"]["total"] == 8
            assert reg["serve.estimate.latency_seconds"]["count"] == 8
            assert reg["serve.batch.queue_wait_seconds"]["count"] == 8
            assert reg["serve.batch.flush_seconds"]["count"] >= 1

            trace = section["last_estimate_trace"]
            assert trace["name"] == "serve.estimate_batch"
            names = []

            def walk(node):
                names.append(node["name"])
                for child in node["children"]:
                    walk(child)

            walk(trace)
            assert "serve.queue_wait" in names
            assert "serve.batch_flush" in names
            # The estimator facade's phase split shows inside the flush.
            assert "estimator.estimate" in names
            assert "forest.inference" in names
            assert "estimator.time_correction" in names
            return True

        assert serve(scenario, package=package)

    def test_counter_exactness_under_80_way_concurrency(
        self, package, feature_rows
    ):
        """Registry counters must be exact when 80 concurrent requests
        race the event loop (the serve-level twin of the threaded
        registry test)."""

        async def scenario(server):
            rows = [feature_rows[i % len(feature_rows)] for i in range(80)]
            responses = await asyncio.gather(
                *(
                    request_once(
                        "127.0.0.1", server.port, "POST", "/estimate",
                        body=estimate_body(row),
                    )
                    for row in rows
                )
            )
            assert all(r.status == 200 for r in responses)
            metrics = (
                await request_once("127.0.0.1", server.port, "GET", "/metrics")
            ).json()
            reg = metrics["obs"]["metrics"]
            assert reg["serve.requests"]["series"]["route=/estimate"] == 80
            assert reg["serve.estimates"]["total"] == 80
            assert reg["serve.estimate.latency_seconds"]["count"] == 80
            assert sum(k * v for k, v in flush_sizes(metrics).items()) == 80
            return True

        assert serve(scenario, package=package)

    def test_loadgen_end_to_end(self, package):
        async def scenario(server):
            result = await run_load(
                "127.0.0.1", server.port, total=120, concurrency=12
            )
            assert result.errors == 0
            summary = result.summary()
            assert summary["rows_per_sec"] > 0
            assert summary["latency_p99_ms"] >= summary["latency_p50_ms"]
            return True

        assert serve(scenario, package=package)


def contribution_record(rng, adx="MoPub", iab="IAB12") -> dict:
    return {
        "adx": adx,
        "dsp": "Criteo-DSP",
        "slot_size": "300x250",
        "publisher_iab": iab,
        "hour_of_day": int(rng.integers(0, 24)),
        "day_of_week": int(rng.integers(0, 7)),
        "price_cpm": float(np.round(np.exp(rng.normal(0, 0.5)), 4)),
    }


class TestContributionIngestion:
    def test_accept_reject_accounting(self, package):
        async def scenario(server):
            rng = np.random.default_rng(0)
            records = [contribution_record(rng) for _ in range(5)]
            records.append({"user_id": "u1", "price_cpm": 1.0})   # forbidden
            records.append(contribution_record(rng) | {"price_cpm": -3.0})
            response = await request_once(
                "127.0.0.1", server.port, "POST", "/contribute",
                body=json.dumps(
                    {"contributor_token": 7, "records": records}
                ).encode(),
            )
            payload = response.json()
            assert response.status == 200
            assert payload["accepted"] == 5
            assert payload["rejected"] == 2
            assert payload["stats"]["accepted"] == 5
            assert payload["stats"]["rejected"] == 2
            assert payload["errors"]
            return True

        assert serve(scenario, package=package)

    def test_bad_token_rejected(self, package):
        async def scenario(server):
            response = await request_once(
                "127.0.0.1", server.port, "POST", "/contribute",
                body=json.dumps(
                    {"contributor_token": "alice", "records": []}
                ).encode(),
            )
            assert response.status == 400
            return True

        assert serve(scenario, package=package)


class TestHotReload:
    def test_contributions_trigger_retrain_and_swap_under_load(
        self, pme_with_campaign, feature_rows
    ):
        """The full loop: contribute past the floor -> retrain off-loop ->
        atomic swap; in-flight estimates never fail and the model
        version/ETag move."""
        pme = pme_with_campaign

        async def scenario(server):
            old = await request_once("127.0.0.1", server.port, "GET", "/model")
            old_etag = old.headers["etag"]
            failures = []
            stop = asyncio.Event()

            async def hammer():
                conn = Connection("127.0.0.1", server.port)
                try:
                    while not stop.is_set():
                        response = await conn.request(
                            "POST", "/estimate",
                            body=estimate_body(feature_rows[0]),
                        )
                        if response.status != 200:
                            failures.append(response.status)
                        await asyncio.sleep(0)
                finally:
                    await conn.close()

            hammers = [asyncio.get_running_loop().create_task(hammer())
                       for _ in range(4)]

            # Push the (MoPub, IAB12) group past k_anonymity=2 with
            # distinct tokens, well beyond retrain_min_new_rows=10.
            rng = np.random.default_rng(1)
            for token in (101, 202, 303):
                records = [contribution_record(rng) for _ in range(8)]
                response = await request_once(
                    "127.0.0.1", server.port, "POST", "/contribute",
                    body=json.dumps(
                        {"contributor_token": token, "records": records}
                    ).encode(),
                )
                assert response.status == 200

            async def wait_for_version(version, timeout=60.0):
                deadline = asyncio.get_running_loop().time() + timeout
                while asyncio.get_running_loop().time() < deadline:
                    metrics = (
                        await request_once(
                            "127.0.0.1", server.port, "GET", "/metrics"
                        )
                    ).json()
                    if metrics["model"]["version"] >= version:
                        return metrics
                    await asyncio.sleep(0.05)
                raise AssertionError(f"model never reached v{version}")

            metrics = await wait_for_version(2)
            assert registry_of(metrics)["serve.retrains"]["total"] >= 1
            assert metrics["model"]["swaps"] >= 1

            stop.set()
            await asyncio.gather(*hammers)
            assert failures == [], (
                f"estimates failed during hot reload: {failures}"
            )

            new = await request_once("127.0.0.1", server.port, "GET", "/model")
            assert new.headers["etag"] != old_etag
            assert int(new.headers["x-model-version"]) == 2
            # Old clients polling with the stale ETag get the new body.
            refreshed = await request_once(
                "127.0.0.1", server.port, "GET", "/model",
                headers={"If-None-Match": old_etag},
            )
            assert refreshed.status == 200

            # The swapped-in model estimates with the retrained forest
            # and still applies the time correction.
            client_model = Estimator.from_package(
                json.loads(new.body.decode())
            )
            assert client_model.time_correction == TIME_CORRECTION
            direct = client_model.estimate_one(feature_rows[0])
            served = (
                await request_once(
                    "127.0.0.1", server.port, "POST", "/estimate",
                    body=estimate_body(feature_rows[0]),
                )
            ).json()
            assert served["estimated_cpm"] == direct
            assert served["model_version"] == 2
            return True

        assert serve(
            scenario,
            pme=pme,
            contributions=ContributionServer(k_anonymity=2),
            retrain_min_new_rows=10,
            max_batch=8,
            max_delay_ms=1.0,
        )

    def test_serve_only_server_never_retrains(self, package):
        async def scenario(server):
            rng = np.random.default_rng(2)
            for token in (1, 2, 3, 4):
                await request_once(
                    "127.0.0.1", server.port, "POST", "/contribute",
                    body=json.dumps(
                        {
                            "contributor_token": token,
                            "records": [
                                contribution_record(rng) for _ in range(10)
                            ],
                        }
                    ).encode(),
                )
            metrics = (
                await request_once("127.0.0.1", server.port, "GET", "/metrics")
            ).json()
            assert metrics["contributions"]["releasable"] >= 20
            assert registry_of(metrics)["serve.retrains"]["total"] == 0
            assert metrics["model"]["version"] == 1
            return True

        assert serve(
            scenario,
            package=package,
            contributions=ContributionServer(k_anonymity=2),
            retrain_min_new_rows=5,
        )

    def test_failed_retrain_keeps_serving_and_waits_for_new_rows(
        self, pme_with_campaign, feature_rows, monkeypatch, caplog
    ):
        """A retrain that raises installs nothing, is counted as failed,
        and is not retried until another floor of rows is releasable."""
        attempts = []

        def broken_retrain(rows, prices, workers=1):
            attempts.append(len(rows))
            raise RuntimeError("retrain blew up")

        monkeypatch.setattr(
            pme_with_campaign, "retrain_with_contributions", broken_retrain
        )

        async def contribute(server, token, n, rng):
            response = await request_once(
                "127.0.0.1", server.port, "POST", "/contribute",
                body=json.dumps(
                    {
                        "contributor_token": token,
                        "records": [contribution_record(rng) for _ in range(n)],
                    }
                ).encode(),
            )
            assert response.status == 200

        async def settled_metrics(server, timeout=60.0):
            deadline = asyncio.get_running_loop().time() + timeout
            while asyncio.get_running_loop().time() < deadline:
                metrics = (
                    await request_once(
                        "127.0.0.1", server.port, "GET", "/metrics"
                    )
                ).json()
                if not metrics["retrain"]["in_progress"]:
                    return metrics
                await asyncio.sleep(0.01)
            raise AssertionError("retrain never settled")

        async def scenario(server):
            installed = await request_once(
                "127.0.0.1", server.port, "GET", "/model"
            )
            direct = Estimator.from_package(
                json.loads(installed.body.decode())
            ).estimate_one(feature_rows[0])

            # The second token releases 16 rows: past the floor of 10.
            rng = np.random.default_rng(3)
            for token in (101, 202):
                await contribute(server, token, 8, rng)
            metrics = await settled_metrics(server)
            retrains = registry_of(metrics)["serve.retrains"]
            assert retrains["series"] == {"outcome=failed": 1}
            assert attempts == [16]
            assert metrics["retrain"]["rows_at_last_retrain"] == 16
            assert "retrain blew up" in caplog.text

            served = (
                await request_once(
                    "127.0.0.1", server.port, "POST", "/estimate",
                    body=estimate_body(feature_rows[0]),
                )
            )
            assert served.status == 200
            assert served.json()["model_version"] == 1
            assert served.json()["estimated_cpm"] == direct

            # Eight more rows stay below the next floor: no new attempt.
            await contribute(server, 303, 8, rng)
            metrics = await settled_metrics(server)
            assert metrics["contributions"]["releasable"] == 24
            assert attempts == [16]
            assert registry_of(metrics)["serve.retrains"]["total"] == 1
            assert metrics["model"]["version"] == 1

            # Two more reach 16 + 10 releasable rows: one retry.
            await contribute(server, 404, 2, rng)
            metrics = await settled_metrics(server)
            assert attempts == [16, 26]
            retrains = registry_of(metrics)["serve.retrains"]
            assert retrains["series"] == {"outcome=failed": 2}
            assert metrics["model"]["version"] == 1
            return True

        assert serve(
            scenario,
            pme=pme_with_campaign,
            contributions=ContributionServer(k_anonymity=2),
            retrain_min_new_rows=10,
        )
