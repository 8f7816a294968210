"""Open-loop load over keep-alive HTTP/1.1 connections.

Requests are due on a fixed schedule (``rate`` per second) whatever the
server does; a dispatcher hands each due request to whichever
connection is free, so a slow server makes requests queue on the client
side.  Latency is measured from the due time, which charges a stall to
every request it delays.  The dispatcher's own lateness -- how long
after a due time it woke up, which is the event loop being busy
elsewhere -- is reported as ``lag``; a large lag means the generator did
not offer the rate it claims, and that phase's row is flagged.

The HTTP client is the benchmark's own, not ``repro.serve.loadgen``, so
a change to the program's client cannot change the measurement.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

#: A phase whose generator lag p99 exceeds this is not trusted: the
#: generator, not the server, set its arrival times.
LAG_LIMIT_MS = 20.0

#: Latency limit for the capacity search (from the due time).
P99_LIMIT_MS = 100.0


class Client:
    """One persistent connection; one request in flight at a time."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port)
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("ascii")
        self._writer.write(head + body)
        await self._writer.drain()
        raw = await self._reader.readuntil(b"\r\n\r\n")
        lines = raw[:-4].split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        close = False
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            name = name.strip().lower()
            if name == b"content-length":
                length = int(value)
            elif name == b"connection":
                close = value.strip().lower() == b"close"
        payload = await self._reader.readexactly(length) if length else b""
        if close:
            await self.close()
        return status, payload

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._reader = self._writer = None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Reply:
    """One completed request."""

    index: int
    due: float
    done: float
    status: int
    payload: dict | None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class Phase:
    """What one open-loop phase (a rate held for a duration) measured."""

    name: str
    rate: float
    replies: list[Reply]
    lags_ms: list[float]
    backlog: int            # due but not yet picked up when the schedule ended
    started: float
    ended: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def sent(self) -> int:
        return len(self.replies)

    @property
    def succeeded(self) -> int:
        return sum(1 for r in self.replies if r.status == 200)

    @property
    def failed(self) -> int:
        return self.sent - self.succeeded

    @property
    def latencies_ms(self) -> list[float]:
        return [r.latency_ms for r in self.replies if r.status == 200]

    @property
    def achieved_rate(self) -> float:
        span = self.ended - self.started
        return self.succeeded / span if span > 0 else 0.0

    @property
    def lag_p99_ms(self) -> float:
        return percentile(self.lags_ms, 99)

    @property
    def trusted(self) -> bool:
        return self.lag_p99_ms <= LAG_LIMIT_MS

    @property
    def growing_backlog(self) -> bool:
        return self.backlog > max(4, 0.05 * self.sent)

    def meets_limit(self) -> bool:
        """The capacity test of one ladder rung."""
        return (
            self.failed == 0
            and self.trusted
            and not self.growing_backlog
            and self.achieved_rate >= 0.95 * self.rate
            and percentile(self.latencies_ms, 99) <= P99_LIMIT_MS
        )

    def summary(self) -> dict:
        lat = self.latencies_ms
        return {
            "phase": self.name,
            "offered_per_s": self.rate,
            "achieved_per_s": self.achieved_rate,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "p50_ms": percentile(lat, 50),
            "p99_ms": percentile(lat, 99),
            "samples": len(lat),
            "lag_p99_ms": self.lag_p99_ms,
            "backlog_at_end": self.backlog,
            "trusted": self.trusted,
            **self.extra,
        }


async def open_loop(
    clients: list[Client],
    bodies: list[bytes],
    rate: float,
    name: str,
    *,
    path: str = "/estimate",
    on_reply: Callable[[Reply], None] | None = None,
    stop: asyncio.Event | None = None,
) -> Phase:
    """Send ``bodies[i]`` due at ``start + i / rate`` over ``clients``,
    or until ``stop`` is set."""
    queue: asyncio.Queue = asyncio.Queue()
    replies: list[Reply] = []
    start = time.perf_counter() + 0.002
    phase = Phase(name=name, rate=rate, replies=replies, lags_ms=[],
                  backlog=0, started=start)

    async def dispatch() -> None:
        for i in range(len(bodies)):
            if stop is not None and stop.is_set():
                break
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.lags_ms.append(max(0.0, time.perf_counter() - due) * 1000.0)
            queue.put_nowait((i, due))
        phase.backlog = queue.qsize()
        for _ in clients:
            queue.put_nowait(None)

    async def work(client: Client) -> None:
        while (item := await queue.get()) is not None:
            i, due = item
            try:
                status, raw = await client.request("POST", path, bodies[i])
                payload = json.loads(raw) if status == 200 else None
            except (OSError, asyncio.IncompleteReadError, ValueError):
                status, payload = 0, None
                await client.close()
            reply = Reply(i, due, time.perf_counter(), status, payload)
            replies.append(reply)
            if on_reply is not None:
                on_reply(reply)

    await asyncio.gather(dispatch(), *(work(c) for c in clients))
    phase.ended = max((r.done for r in replies), default=start)
    replies.sort(key=lambda r: r.index)
    return phase
