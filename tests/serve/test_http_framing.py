"""Unit tests for the HTTP/1.1 framing layer (no sockets needed)."""

import asyncio

import pytest

from repro.serve.http import (
    HttpError,
    read_request,
    render_response,
)


def parse(raw: bytes, **limits):
    """Feed raw bytes through a StreamReader and parse one request."""

    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader, **limits)

    return asyncio.run(run())


class TestRequestParsing:
    def test_simple_get(self):
        req = parse(b"GET /model?v=2 HTTP/1.1\r\nHost: x\r\n\r\n")
        assert req.method == "GET"
        assert req.path == "/model"
        assert req.query == {"v": "2"}
        assert req.headers["host"] == "x"
        assert req.body == b""
        assert req.keep_alive

    def test_post_with_body(self):
        req = parse(
            b"POST /estimate HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert req.body == b"abcd"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_keep_alive_negotiation(self):
        assert parse(b"GET / HTTP/1.1\r\n\r\n").keep_alive
        assert not parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive
        assert not parse(b"GET / HTTP/1.0\r\n\r\n").keep_alive
        assert parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").keep_alive

    def test_header_keys_lowercased(self):
        req = parse(b"GET / HTTP/1.1\r\nIf-None-Match: \"abc\"\r\n\r\n")
        assert req.header("If-None-Match") == '"abc"'

    @pytest.mark.parametrize(
        "raw",
        [
            b"GARBAGE\r\n\r\n",                       # no method/target/version
            b"GET /x HTTP/2.0\r\n\r\n",               # unsupported version
            b"get /x HTTP/1.1\r\n\r\n",               # lowercase method
            b"GET x HTTP/1.1\r\n\r\n",                # target not absolute
            b"GET / HTTP/1.1\r\nbad header\r\n\r\n",  # no colon
            b"GET / HTTP/1.1\r\nContent-Length: z\r\n\r\n",
            b"GET / HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            # int() would read these as 10 and 3; bodies are complete.
            b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789",
            b"POST / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc",
            b"POST / HTTP/1.1\r\nContent-Length: 3\r\n"
            b"Content-Length: 5\r\n\r\nabcde",    # conflicting lengths
        ],
    )
    def test_malformed_rejected_with_400(self, raw):
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == 400

    def test_truncated_body_rejected(self):
        with pytest.raises(HttpError) as err:
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc")
        assert err.value.status == 400

    def test_oversized_header_block_431(self):
        raw = b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 9000 + b"\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse(raw, max_header_bytes=4096)
        assert err.value.status == 431

    def test_oversized_body_413(self):
        # 5,000 digits is past what int() converts.
        for length in (b"100000", b"9" * 5000):
            raw = b"POST / HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n"
            with pytest.raises(HttpError) as err:
                parse(raw, max_body_bytes=1000)
            assert err.value.status == 413

    def test_chunked_not_implemented(self):
        raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
        with pytest.raises(HttpError) as err:
            parse(raw)
        assert err.value.status == 501


class TestResponseRendering:
    def test_basic_shape(self):
        raw = render_response(200, b'{"a":1}')
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"Content-Length: 7" in head
        assert b"Content-Type: application/json" in head
        assert body == b'{"a":1}'

    def test_connection_header_tracks_keep_alive(self):
        assert b"Connection: keep-alive" in render_response(200, keep_alive=True)
        assert b"Connection: close" in render_response(400, keep_alive=False)

    def test_extra_headers_emitted(self):
        raw = render_response(304, headers={"ETag": '"xyz"'})
        assert b'ETag: "xyz"' in raw
        assert b"Content-Length: 0" in raw
