"""Load generator and minimal async HTTP client for the PME server.

Two layers:

* :class:`Connection` -- a tiny keep-alive HTTP/1.1 client over
  asyncio streams, stdlib-only like the server.
  The serve test-suite reuses it, so client and server framing are
  exercised against each other over real sockets.
* :func:`run_load` -- the actual load generator: ``concurrency``
  workers, each with its own persistent connection, hammer
  ``POST /estimate`` until ``total`` requests have completed,
  recording per-request latency.  Returns throughput + percentile
  stats; ``bench_serve.py`` beside it wraps it to compare batching
  on vs off.

Standalone usage (against an already-running ``repro serve``)::

    python benchmarks/loadgen.py \
        --host 127.0.0.1 --port 8080 --requests 2000 --concurrency 32
"""

from __future__ import annotations

import argparse
import asyncio
import json
import time
from dataclasses import dataclass, field


@dataclass
class Response:
    """One parsed client-side HTTP response."""

    status: int
    headers: dict[str, str]
    body: bytes

    def json(self) -> dict:
        return json.loads(self.body.decode("utf-8"))


class Connection:
    """A persistent (keep-alive) client connection."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def _ensure_open(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._writer = None
            self._reader = None

    async def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: dict[str, str] | None = None,
    ) -> Response:
        await self._ensure_open()
        assert self._reader is not None and self._writer is not None
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        for k, v in (headers or {}).items():
            lines.append(f"{k}: {v}")
        payload = body or b""
        if payload or method in ("POST", "PUT"):
            lines.append(f"Content-Length: {len(payload)}")
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii") + payload
        self._writer.write(raw)
        await self._writer.drain()
        return await self._read_response()

    async def _read_response(self) -> Response:
        assert self._reader is not None
        head = await self._reader.readuntil(b"\r\n\r\n")
        status_line, _, header_block = head[:-4].partition(b"\r\n")
        parts = status_line.split(b" ", 2)
        status = int(parts[1])
        headers: dict[str, str] = {}
        for line in header_block.split(b"\r\n"):
            if not line:
                continue
            name, _, value = line.partition(b":")
            headers[name.decode("ascii").strip().lower()] = (
                value.decode("latin-1").strip()
            )
        length = int(headers.get("content-length", "0"))
        body = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return Response(status=status, headers=headers, body=body)


# -- the load generator -----------------------------------------------------

#: A plausible S-feature context (overridable per run).
DEFAULT_FEATURES = {
    "context": "app",
    "device_type": "smartphone",
    "city": "Madrid",
    "time_of_day": 3,
    "day_of_week": 2,
    "slot_size": "320x50",
    "publisher_iab": "IAB9",
    "adx": "AdX-1",
}


@dataclass
class LoadResult:
    """What one load run measured."""

    requests: int
    errors: int
    seconds: float
    latencies: list[float] = field(repr=False, default_factory=list)

    @property
    def rows_per_sec(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    def percentile(self, p: float) -> float:
        if not self.latencies:
            return 0.0
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, round(p / 100 * len(ordered)) - 1))
        return ordered[rank]

    def summary(self) -> dict:
        return {
            "requests": self.requests,
            "errors": self.errors,
            "seconds": self.seconds,
            "rows_per_sec": self.rows_per_sec,
            "latency_p50_ms": self.percentile(50) * 1000,
            "latency_p99_ms": self.percentile(99) * 1000,
        }


async def run_load(
    host: str,
    port: int,
    *,
    total: int = 1000,
    concurrency: int = 32,
    features: dict | None = None,
    path: str = "/estimate",
) -> LoadResult:
    """Fire ``total`` estimate requests from ``concurrency`` workers.

    Each worker holds one keep-alive connection (how a fleet of
    YourAdValue clients looks to the server: many sockets, one request
    in flight per socket).  Latency is measured per request, client
    side, so micro-batching delay is included -- the server cannot
    cheat the percentiles.
    """
    body = json.dumps(
        {"features": dict(features or DEFAULT_FEATURES)}
    ).encode("utf-8")
    remaining = list(range(total))
    latencies: list[float] = []
    errors = 0

    async def worker() -> None:
        nonlocal errors
        conn = Connection(host, port)
        try:
            while True:
                try:
                    remaining.pop()
                except IndexError:
                    return
                start = time.perf_counter()
                response = await conn.request("POST", path, body=body)
                latencies.append(time.perf_counter() - start)
                if response.status != 200:
                    errors += 1
        finally:
            await conn.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    elapsed = time.perf_counter() - started
    return LoadResult(
        requests=total, errors=errors, seconds=elapsed, latencies=latencies
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Load-generate against a running repro serve instance"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--requests", type=int, default=1000)
    parser.add_argument("--concurrency", type=int, default=32)
    parser.add_argument(
        "--features", default=None,
        help="JSON feature object to estimate (default: a built-in context)",
    )
    args = parser.parse_args(argv)
    features = json.loads(args.features) if args.features else None
    result = asyncio.run(
        run_load(
            args.host,
            args.port,
            total=args.requests,
            concurrency=args.concurrency,
            features=features,
        )
    )
    print(json.dumps(result.summary(), indent=2))
    return 0 if result.errors == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
