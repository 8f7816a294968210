"""Round-trip property tests for weblog persistence (repro.io).

Property: for any weblog — including URLs and user agents containing
commas, quotes, newlines, and unicode — ``write_weblog_csv`` followed
by either the streaming reader (``iter_weblog_csv``) or the chunked
reader (``read_weblog_chunks``) reproduces the rows exactly, for both
plain and gzipped files.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.io import (
    iter_weblog_csv,
    read_weblog_chunks,
    write_weblog_csv,
)
from repro.trace.weblog import HttpRequest

# Text that stresses the CSV layer: delimiters, quoting, unicode,
# embedded newlines.
_nasty_text = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "S", "Zs"),
        include_characters=',"\n\'=&?%;ÁñüЖ中🜚',
    ),
    max_size=60,
)

_rows = st.builds(
    HttpRequest,
    timestamp=st.floats(
        min_value=0, max_value=2e9, allow_nan=False, allow_infinity=False
    ),
    user_id=_nasty_text,
    url=_nasty_text,
    domain=_nasty_text,
    user_agent=_nasty_text,
    kind=st.sampled_from(("content", "nurl", "sync", "analytics")),
    bytes_transferred=st.integers(min_value=0, max_value=10**12),
    duration_ms=st.floats(
        min_value=0, max_value=1e7, allow_nan=False, allow_infinity=False
    ),
    client_ip=st.one_of(st.just(""), st.just("85.1.0.7"), _nasty_text),
)

_weblogs = st.lists(_rows, max_size=25)

_SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
class TestWeblogRoundtripProperties:
    @given(rows=_weblogs)
    @_SETTINGS
    def test_read_equals_written(self, rows, suffix, tmp_path):
        path = tmp_path / f"weblog{suffix}"
        count = write_weblog_csv(rows, path)
        assert count == len(rows)
        assert list(iter_weblog_csv(path)) == rows

    @given(rows=_weblogs)
    @_SETTINGS
    def test_iter_equals_read(self, rows, suffix, tmp_path):
        path = tmp_path / f"weblog{suffix}"
        write_weblog_csv(rows, path)
        assert list(iter_weblog_csv(path)) == rows

    @given(rows=_weblogs, chunk_size=st.integers(min_value=1, max_value=30))
    @_SETTINGS
    def test_chunks_flatten_to_rows(self, rows, chunk_size, suffix, tmp_path):
        path = tmp_path / f"weblog{suffix}"
        write_weblog_csv(rows, path)
        chunks = list(read_weblog_chunks(path, chunk_size=chunk_size))
        assert [row for chunk in chunks for row in chunk] == rows
        # Every chunk except the last is exactly chunk_size.
        for chunk in chunks[:-1]:
            assert len(chunk) == chunk_size
        if chunks:
            assert 1 <= len(chunks[-1]) <= chunk_size


class TestStreamingReaderEdges:
    def test_iter_is_lazy(self, tmp_path):
        """The generator must not materialise the file: the first row
        is available without consuming the rest."""
        path = tmp_path / "weblog.csv"
        rows = [
            HttpRequest(
                timestamp=float(i), user_id=f"u{i}", url="http://x.test/",
                domain="x.test", user_agent="UA", kind="content",
                bytes_transferred=i, duration_ms=1.0, client_ip="",
            )
            for i in range(100)
        ]
        write_weblog_csv(rows, path)
        stream = iter_weblog_csv(path)
        assert next(stream) == rows[0]
        stream.close()

    def test_missing_columns_raise(self, tmp_path):
        path = tmp_path / "weblog.csv"
        path.write_text("timestamp,user_id\n1.0,u1\n")
        with pytest.raises(ValueError, match="missing columns"):
            next(iter_weblog_csv(path))

    def test_bad_chunk_size_rejected(self, tmp_path):
        path = tmp_path / "weblog.csv"
        write_weblog_csv([], path)
        with pytest.raises(ValueError, match="chunk_size"):
            next(read_weblog_chunks(path, chunk_size=0))

    def test_empty_weblog_round_trips(self, tmp_path):
        path = tmp_path / "weblog.csv.gz"
        assert write_weblog_csv([], path) == 0
        assert list(iter_weblog_csv(path)) == []
        assert list(read_weblog_chunks(path)) == []
