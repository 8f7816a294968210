"""Tests for the tracing half of the observability spine.

Covers the contract the instrumented pipeline relies on: spans nest via
context vars, disabled tracing is a shared no-op, finished spans
round-trip through JSON, worker sub-trees graft deterministically, and
the parallel analyzer's stitched trace is identical (modulo timing)
across runs.
"""

import json

import pytest

from repro import obs
from repro.obs.trace import NOOP_SPAN


class TestSpanBasics:
    def test_disabled_tracing_returns_shared_noop(self):
        assert obs.active_trace() is None
        s = obs.span("anything", rows=3)
        assert s is NOOP_SPAN
        with s as inner:
            inner.set(ignored=True)   # must not raise
        assert obs.span("other") is NOOP_SPAN

    def test_event_and_graft_are_noops_when_disabled(self):
        obs.event("nothing", duration=1.0)
        grafted = obs.graft([{
            "name": "w", "span_id": "x-1", "parent_id": None,
            "start": 0.0, "duration": 0.1, "attrs": {},
        }])
        assert grafted == 0

    def test_spans_nest_and_record_on_exit(self):
        with obs.start_trace("root", scale=0.5) as t:
            with obs.span("outer", a=1):
                with obs.span("inner"):
                    pass
            with obs.span("sibling") as s:
                s.set(extra="yes")
        tree = t.tree()
        assert tree["name"] == "root"
        assert tree["attrs"] == {"scale": 0.5}
        assert [c["name"] for c in tree["children"]] == ["outer", "sibling"]
        outer = tree["children"][0]
        assert [c["name"] for c in outer["children"]] == ["inner"]
        assert tree["children"][1]["attrs"] == {"extra": "yes"}

    def test_exceptions_close_spans_and_stamp_error(self):
        with pytest.raises(RuntimeError):
            with obs.start_trace("root") as t:
                with obs.span("will_fail"):
                    raise RuntimeError("boom")
        failed = next(r for r in t.records if r.name == "will_fail")
        assert failed.attrs["error"] == "RuntimeError"
        # The trace collector was uninstalled despite the exception.
        assert obs.active_trace() is None

    def test_event_records_premeasured_child(self):
        with obs.start_trace("root") as t:
            with obs.span("parent"):
                obs.event("queue_wait", duration=0.25, wait_for="flush")
        tree = t.tree()
        parent = tree["children"][0]
        assert parent["children"][0]["name"] == "queue_wait"
        assert parent["children"][0]["duration"] == 0.25
        assert parent["children"][0]["attrs"] == {"wait_for": "flush"}

    def test_records_round_trip_through_json(self):
        with obs.start_trace("root") as t:
            with obs.span("child", n=2):
                pass
        shipped = json.loads(json.dumps(t.to_dicts()))
        rebuilt = obs.build_tree(shipped)
        assert rebuilt["name"] == "root"
        assert rebuilt["children"][0]["name"] == "child"
        assert rebuilt["children"][0]["attrs"] == {"n": 2}


class TestGraft:
    def _worker_records(self, tag: str) -> list[dict]:
        """Simulate a pool worker capturing its own chunk trace."""
        with obs.start_trace("analyzer.shard", shard=tag) as worker:
            with obs.span("analyzer.scan"):
                pass
        return worker.to_dicts()

    def test_grafted_roots_reparent_under_current_span(self):
        shipped = self._worker_records("s0")
        with obs.start_trace("coordinator") as t:
            with obs.span("analyzer.merge"):
                assert obs.graft(shipped) == len(shipped)
        tree = t.tree()
        merge = tree["children"][0]
        assert [c["name"] for c in merge["children"]] == ["analyzer.shard"]
        shard = merge["children"][0]
        assert [c["name"] for c in shard["children"]] == ["analyzer.scan"]

    def test_graft_preserves_sibling_order(self):
        batches = [self._worker_records(f"s{i}") for i in range(3)]
        with obs.start_trace("coordinator") as t:
            with obs.span("analyzer.merge"):
                for shipped in batches:
                    obs.graft(shipped)
        merge = t.tree()["children"][0]
        shards = [c for c in merge["children"] if c["name"] == "analyzer.shard"]
        assert [s["attrs"]["shard"] for s in shards] == ["s0", "s1", "s2"]

    def test_multiple_roots_wrap_under_synthetic_node(self):
        records = []
        for tag in ("a", "b"):
            with obs.start_trace("piece", tag=tag) as t:
                pass
            records.extend(t.to_dicts())
        tree = obs.build_tree(records)
        assert tree["name"] == "<trace>"
        assert [c["attrs"]["tag"] for c in tree["children"]] == ["a", "b"]


def _shape(node: dict) -> tuple:
    """Timing-free structural fingerprint of a trace tree."""
    stable_attrs = {
        k: v for k, v in sorted(node["attrs"].items()) if k != "cpu_s"
    }
    return (
        node["name"],
        tuple(sorted(stable_attrs.items())),
        tuple(_shape(c) for c in node["children"]),
    )


class TestParallelStitching:
    """The tentpole acceptance: workers>1 produces one stitched,
    deterministic trace with per-shard sub-trees."""

    @pytest.fixture(scope="class")
    def weblog(self):
        from repro.trace.simulate import SimulationConfig, simulate_dataset

        return simulate_dataset(
            SimulationConfig(
                n_users=30, target_auctions=400, n_web_publishers=20,
                n_app_publishers=10, n_advertisers=6, seed=19,
            )
        )

    def _traced_analysis(self, dataset, workers: int):
        from repro.analyzer.interests import PublisherDirectory
        from repro.analyzer.parallel import analyze_parallel

        directory = PublisherDirectory.from_universe(dataset.universe)
        with obs.start_trace("analyze", workers=workers) as t:
            result = analyze_parallel(
                dataset.rows, directory, workers=workers, chunk_size=400
            )
        return result, t

    def test_worker_spans_are_stitched_into_one_tree(self, weblog):
        result, t = self._traced_analysis(weblog, workers=2)
        tree = t.tree()
        names = set()

        def walk(node):
            names.add(node["name"])
            for child in node["children"]:
                walk(child)

        walk(tree)
        assert "analyzer.analyze" in names
        assert "analyzer.merge" in names
        assert "analyzer.shard" in names     # shipped from pool workers
        # Every shard sub-tree carries its own scan/observation spans.
        shards = [
            r for r in t.records if r.name == "analyzer.shard"
        ]
        assert shards, "no worker spans shipped"
        shard_ids = {r.span_id for r in shards}
        child_names = {
            r.name for r in t.records if r.parent_id in shard_ids
        }
        assert child_names == {"analyzer.scan", "analyzer.observations"}
        assert result.observations  # the run actually did work

    def test_stitched_trace_shape_is_deterministic(self, weblog):
        result_a, trace_a = self._traced_analysis(weblog, workers=2)
        result_b, trace_b = self._traced_analysis(weblog, workers=2)
        assert _shape(trace_a.tree()) == _shape(trace_b.tree())
        assert [o.price_cpm for o in result_a.observations] == [
            o.price_cpm for o in result_b.observations
        ]

    def test_untraced_parallel_run_ships_no_spans(self, weblog):
        from repro.analyzer.interests import PublisherDirectory
        from repro.analyzer.parallel import analyze_parallel

        directory = PublisherDirectory.from_universe(weblog.universe)
        assert obs.active_trace() is None
        result = analyze_parallel(
            weblog.rows, directory, workers=2, chunk_size=400
        )
        assert result.observations


class TestStage:
    def test_stage_is_noop_when_fully_disabled(self):
        assert not obs.profiling_enabled()
        assert obs.stage("anything") is NOOP_SPAN

    def test_stage_stamps_cpu_seconds_into_span(self):
        with obs.start_trace("root") as t:
            with obs.stage("work", rows=10) as st:
                st.set(extra=1)
        record = next(r for r in t.records if r.name == "work")
        assert record.attrs["rows"] == 10
        assert record.attrs["extra"] == 1
        assert record.attrs["cpu_s"] >= 0.0

    def test_profiling_records_metrics_without_a_trace(self):
        from repro.obs.metrics import MetricsRegistry
        import repro.obs.metrics as metrics_mod

        fresh = MetricsRegistry()
        old = metrics_mod._DEFAULT
        metrics_mod._DEFAULT = fresh
        try:
            obs.enable_profiling(True)
            with obs.stage("probe.stage"):
                pass
        finally:
            obs.enable_profiling(False)
            metrics_mod._DEFAULT = old
        snap = fresh.snapshot()
        assert snap["profile.probe.stage.calls"]["total"] == 1
        assert snap["profile.probe.stage.wall_seconds"]["count"] == 1
        assert snap["profile.probe.stage.cpu_seconds"]["count"] == 1


class TestSimulatorSpans:
    """The simulator and the probe campaigns emit batch-level spans only."""

    def test_one_span_per_period_and_per_campaign_loop(self):
        from repro.core.pme import PriceModelingEngine
        from repro.trace.simulate import SimulationConfig, build_market, simulate_dataset
        from repro.util.rng import RngRegistry

        config = SimulationConfig(n_users=12, target_auctions=150, n_web_publishers=30,
                                  n_app_publishers=15, n_advertisers=10, seed=5)
        with obs.start_trace("root") as t:
            weblog = simulate_dataset(config)
            market = build_market(config, RngRegistry(config.seed))
            a1, a2 = PriceModelingEngine(seed=5).run_probe_campaigns(
                market, auctions_per_setup=1)

        by_id = {r.span_id: r for r in t.records}
        periods = [r for r in t.records if r.name == "trace.period"]
        assert len(periods) == 1
        attrs = periods[0].attrs
        assert attrs["auctions"] == config.target_auctions
        assert 0 < attrs["sold"] <= attrs["auctions"]
        assert attrs["sold"] == weblog.n_impressions
        assert attrs["rows"] == len(weblog.rows)

        loops = [r for r in t.records if r.name == "pme.campaign_auctions"]
        assert [by_id[r.parent_id].name for r in loops] == [
            "pme.campaign_a1", "pme.campaign_a2"]
        for record, result in zip(loops, (a1, a2)):
            assert record.attrs["campaign"] == result.name
            assert record.attrs["auctions"] == len(result.setups)
            assert record.attrs["impressions"] == len(result.impressions)
            assert record.attrs["sold"] >= record.attrs["impressions"]
        # Batch granularity: a handful of spans for ~440 auctions.
        assert len(t.records) < 10
