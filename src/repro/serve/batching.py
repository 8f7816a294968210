"""Micro-batching queue for the ``/estimate`` hot path.

Every estimate call carries a fixed per-call cost -- encoding, spans,
and the forest's arena walk, whose ``O(depth)`` numpy steps cost about
the same for one row as for a few dozen -- so a serving process wants
to coalesce concurrent in-flight estimate requests into a single
vectorised call instead of paying that cost once per request.

:class:`MicroBatcher` implements the standard two-knob policy:

* ``max_batch`` -- flush as soon as this many requests are queued;
* ``max_delay_ms`` -- flush a partial batch once the *oldest* queued
  request has waited this long (the latency bound).

``max_batch=1`` degrades to pass-through (batching off) and is the
baseline configuration ``bench_serve`` compares against.  The batcher
is single-consumer and lives on the event loop; the predict callable
runs inline (it is one short vectorised numpy call) so results complete
in submission order and every waiter observes exactly one model
snapshot per batch.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro import obs

#: Requests a batcher holds before ``submit`` waits for queue space.
MAX_QUEUE = 10_000


@dataclass
class _Pending:
    row: Any
    future: asyncio.Future
    enqueued_at: float          # perf_counter at submit time


class MicroBatcher:
    """Coalesce awaited ``submit(row)`` calls into batched predictions.

    ``predict`` maps a list of rows to a sequence of results (one per
    row, order-preserving).  ``on_batch(size, seconds)`` and
    ``on_queue_wait(seconds)`` are optional metrics hooks: the former
    fires once per flush with the batch size and inference time, the
    latter once per request with its time spent queued.

    Observability: every flush runs under a ``serve.estimate_batch``
    trace -- per-request ``serve.queue_wait`` events, one
    ``serve.batch_flush`` span around the predict call (the estimator's
    ``estimator.encode`` / ``forest.inference`` / ``estimator.
    time_correction`` spans nest inside, because predict runs inline on
    the same task).  The finished tree of the most recent flush is kept
    on :attr:`last_trace` for the ``/metrics`` endpoint.
    """

    def __init__(
        self,
        predict: Callable[[list[Any]], Sequence[Any]],
        *,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        on_batch: Callable[[int, float], None] | None = None,
        on_queue_wait: Callable[[float], None] | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        self._predict = predict
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1000.0
        self._queue: asyncio.Queue[_Pending] = asyncio.Queue(maxsize=MAX_QUEUE)
        self._on_batch = on_batch
        self._on_queue_wait = on_queue_wait
        self._task: asyncio.Task | None = None
        self._closed = False
        #: Nested span tree of the most recent flush (or None).
        self.last_trace: dict | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self._task is None:
            self._closed = False
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain the queue, cancel the consumer, fail any stragglers."""
        self._closed = True
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        while not self._queue.empty():
            pending = self._queue.get_nowait()
            if not pending.future.done():
                pending.future.set_exception(RuntimeError("batcher stopped"))

    # -- submission ---------------------------------------------------------

    async def submit(self, row: Any) -> Any:
        """Queue one row; resolves with its prediction."""
        if self._closed or self._task is None:
            raise RuntimeError("batcher is not running")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Pending(row, future, time.perf_counter()))
        return await future

    # -- consumer -----------------------------------------------------------

    async def _collect(self) -> list[_Pending]:
        """Block for the first row, then top up until size or deadline."""
        batch = [await self._queue.get()]
        if self.max_batch == 1:
            return batch
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_delay
        while len(batch) < self.max_batch:
            # Fast path: take whatever is already queued without yielding.
            try:
                batch.append(self._queue.get_nowait())
                continue
            except asyncio.QueueEmpty:
                pass
            timeout = deadline - loop.time()
            if timeout <= 0:
                break
            try:
                batch.append(
                    await asyncio.wait_for(self._queue.get(), timeout)
                )
            except asyncio.TimeoutError:
                break
        return batch

    async def _run(self) -> None:
        while True:
            batch = await self._collect()
            start = time.perf_counter()
            error: Exception | None = None
            results: Sequence[Any] = ()
            with obs.start_trace(
                "serve.estimate_batch", batch_size=len(batch)
            ) as trace:
                for pending in batch:
                    wait = start - pending.enqueued_at
                    obs.event("serve.queue_wait", duration=wait)
                    if self._on_queue_wait is not None:
                        self._on_queue_wait(wait)
                with obs.span("serve.batch_flush", rows=len(batch)):
                    try:
                        results = self._predict([p.row for p in batch])
                    except Exception as exc:  # noqa: BLE001 - fan the error out
                        error = exc
            self.last_trace = trace.tree()
            if error is not None:
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(error)
                continue
            elapsed = time.perf_counter() - start
            if len(results) != len(batch):
                error = RuntimeError(
                    f"predict returned {len(results)} results "
                    f"for a batch of {len(batch)}"
                )
                for pending in batch:
                    if not pending.future.done():
                        pending.future.set_exception(error)
                continue
            for pending, result in zip(batch, results):
                if not pending.future.done():
                    pending.future.set_result(result)
            if self._on_batch is not None:
                self._on_batch(len(batch), elapsed)
