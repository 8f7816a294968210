"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The serve subsystem deliberately avoids third-party web frameworks:
the PME's API surface is five small JSON endpoints, and a ~200-line
framing layer keeps the whole server dependency-free and auditable.
This module owns exactly the wire concerns:

* :func:`read_request` -- parse one request (request line, headers,
  ``Content-Length`` body) off a :class:`asyncio.StreamReader`, with
  hard limits on header-block and body sizes so a hostile client can
  not balloon server memory;
* :func:`render_response` -- serialise a status/headers/body triple,
  handling keep-alive negotiation (HTTP/1.1 persistent by default,
  HTTP/1.0 opt-in);
* :class:`HttpError` -- raised by the parser with the status code the
  connection handler should answer before closing.

No routing, no JSON, no TLS -- those live in :mod:`repro.serve.app`
(and TLS termination is a reverse proxy's job in any deployment this
subsystem targets).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from urllib.parse import parse_qsl, urlsplit

#: Largest accepted request-line + header block, bytes.
MAX_HEADER_BYTES = 16_384
#: Largest accepted request body, bytes (contribution batches are the
#: biggest legitimate payload; 1 MiB is ~5k records).
MAX_BODY_BYTES = 1_048_576

_REASONS = {
    200: "OK",
    204: "No Content",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A protocol violation the server should answer with ``status``."""

    def __init__(self, status: int, detail: str):
        super().__init__(detail)
        self.status = int(status)
        self.detail = detail


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    query: dict[str, str]
    version: str
    headers: dict[str, str]       # keys lowercased
    body: bytes = b""
    #: raw request target as sent (path + query string)
    target: str = ""
    #: header-echo bookkeeping for keep-alive negotiation
    keep_alive: bool = True

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)


def _parse_headers(block: bytes) -> dict[str, str]:
    """Header fields keyed by lowercased name; a repeated field keeps
    its last value, except that differing ``Content-Length`` values
    answer 400 (the body's framing would be ambiguous)."""
    headers: dict[str, str] = {}
    for raw in block.split(b"\r\n"):
        if not raw:
            continue
        name, sep, value = raw.partition(b":")
        if not sep or not name or name != name.strip():
            raise HttpError(400, f"malformed header line {raw[:64]!r}")
        try:
            key = name.decode("ascii").strip().lower()
        except UnicodeDecodeError as exc:
            raise HttpError(400, "non-ascii header name") from exc
        text = value.decode("latin-1").strip()
        if key == "content-length" and headers.get(key, text) != text:
            raise HttpError(400, "conflicting content-length headers")
        headers[key] = text
    return headers


def _wants_keep_alive(version: str, headers: dict[str, str]) -> bool:
    connection = headers.get("connection", "").lower()
    if version == "HTTP/1.0":
        return connection == "keep-alive"
    return connection != "close"


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_header_bytes: int = MAX_HEADER_BYTES,
    max_body_bytes: int = MAX_BODY_BYTES,
) -> Request | None:
    """Parse one request; ``None`` on clean EOF (client hung up).

    Raises :class:`HttpError` on malformed framing, oversized headers
    (431) or bodies (413) -- the handler answers and closes.
    """
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None                      # clean close between requests
        raise HttpError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise HttpError(431, "header block exceeds stream limit") from exc
    if len(head) > max_header_bytes:
        raise HttpError(431, f"header block over {max_header_bytes} bytes")

    request_line, _, header_block = head[:-4].partition(b"\r\n")
    parts = request_line.split(b" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line {request_line[:64]!r}")
    raw_method, raw_target, raw_version = parts
    try:
        method = raw_method.decode("ascii")
        target = raw_target.decode("ascii")
        version = raw_version.decode("ascii")
    except UnicodeDecodeError as exc:
        raise HttpError(400, "non-ascii request line") from exc
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise HttpError(400, f"unsupported version {version!r}")
    if not method.isalpha() or not method.isupper():
        raise HttpError(400, f"malformed method {method!r}")
    if not target.startswith("/"):
        raise HttpError(400, f"unsupported request target {target[:64]!r}")

    headers = _parse_headers(header_block)
    if "transfer-encoding" in headers:
        raise HttpError(501, "transfer-encoding not supported")

    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        # Digits only: int() would also take "+3" and "1_0".
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise HttpError(400, f"bad content-length {raw_length[:32]!r}")
        # Length-check the text first: int() refuses ~4,300+ digits.
        digits = raw_length.lstrip("0") or "0"
        if len(digits) > len(str(max_body_bytes)) or int(digits) > max_body_bytes:
            raise HttpError(413, f"body over {max_body_bytes} bytes")
        try:
            body = await reader.readexactly(int(digits))
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "body shorter than content-length") from exc

    split = urlsplit(target)
    return Request(
        method=method,
        path=split.path,
        query=dict(parse_qsl(split.query)),
        version=version,
        headers=headers,
        body=body,
        target=target,
        keep_alive=_wants_keep_alive(version, headers),
    )


def render_response(
    status: int,
    body: bytes = b"",
    *,
    content_type: str = "application/json",
    headers: dict[str, str] | None = None,
    keep_alive: bool = True,
) -> bytes:
    """Serialise one response (status line, headers, body) to bytes."""
    reason = _REASONS.get(status, "Unknown")
    lines = [f"HTTP/1.1 {status} {reason}"]
    out = dict(headers or {})
    out.setdefault("Content-Type", content_type)
    out["Content-Length"] = str(len(body))
    out["Connection"] = "keep-alive" if keep_alive else "close"
    lines.extend(f"{k}: {v}" for k, v in out.items())
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
    return head + body
