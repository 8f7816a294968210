"""Tests for weblog record structures and the dataset container."""

import pytest

from repro.rtb.exchange import PairEncryptionPolicy
from repro.trace.publishers import build_universe
from repro.trace.weblog import (
    KIND_CONTENT,
    HttpRequest,
    UserTrafficStats,
    Weblog,
)
from repro.util.rng import stream
from repro.util.timeutil import Period


def make_row(ts=1.0, user="u1", kind=KIND_CONTENT):
    return HttpRequest(
        timestamp=ts,
        user_id=user,
        url="https://site.example/x",
        domain="site.example",
        user_agent="UA",
        kind=kind,
        bytes_transferred=100,
        duration_ms=10.0,
        client_ip="85.10.1.1",
    )


@pytest.fixture()
def weblog():
    universe = build_universe(stream("wl"), n_web=10, n_app=5, n_advertisers=3)
    return Weblog(
        period=Period.for_year(2015),
        users=[],
        universe=universe,
        policy=PairEncryptionPolicy(),
    )


class TestUserTrafficStats:
    def test_accumulates(self):
        stats = UserTrafficStats()
        stats.record(make_row())
        stats.record(make_row(ts=2.0))
        assert stats.requests == 2
        assert stats.bytes_transferred == 200
        assert stats.duration_ms == 20.0


class TestWeblog:
    def test_add_row_updates_stats(self, weblog):
        weblog.add_row(make_row(user="a"))
        weblog.add_row(make_row(user="a", ts=2.0))
        weblog.add_row(make_row(user="b"))
        assert weblog.n_rows == 3
        assert weblog.stats["a"].requests == 2
        assert weblog.stats["b"].requests == 1

    def test_finalize_sorts_rows(self, weblog):
        weblog.add_row(make_row(ts=5.0))
        weblog.add_row(make_row(ts=1.0))
        weblog.finalize()
        assert [r.timestamp for r in weblog.rows] == [1.0, 5.0]

    def test_summary_on_empty(self, weblog):
        summary = weblog.summary()
        assert summary["impressions"] == 0
        assert summary["encrypted_fraction"] == 0.0

    def test_rows_are_immutable(self):
        row = make_row()
        with pytest.raises(AttributeError):
            row.timestamp = 99.0
