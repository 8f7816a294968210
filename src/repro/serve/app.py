"""The PME serving application: routes, micro-batching, hot reload.

This is the long-running face of the Price Modeling Engine (paper
section 3.2's client/server loop, productionised the way the follow-up
YourAdvalue system paper describes):

========  ============  ====================================================
method    path          role
========  ============  ====================================================
POST      /estimate     estimate one encrypted impression's CPM; concurrent
                        requests are micro-batched into single vectorised
                        forest calls (:class:`repro.serve.batching.MicroBatcher`)
GET       /model        current JSON model package; strong content-hash
                        ``ETag`` + ``If-None-Match`` -> 304 for cheap polling
POST      /contribute   anonymous price-record ingestion
                        (:class:`repro.core.contributions.ContributionServer`);
                        enough releasable rows triggers a retrain + hot reload
GET       /healthz      liveness + current model version
GET       /metrics      model version/age, contribution and retrain state,
                        and the ``serve.*`` registry series (requests,
                        batch flushes, latency histograms) under ``obs``
========  ============  ====================================================

Hot-reload discipline: a retrain runs ``retrain_with_contributions``
plus snapshot materialisation **off the event loop** (default
executor); the loop side then installs the finished
:class:`~repro.serve.store.ModelSnapshot` with a single reference
assignment.  Handlers (and each micro-batch flush) grab one snapshot
reference up front, so in-flight estimates never block on -- and never
straddle -- a swap.  A retrain that raises installs nothing: the server
keeps serving the current snapshot, logs the traceback, counts the
attempt as ``serve.retrains{outcome=failed}``, and tries again only once
another ``retrain_min_new_rows`` rows have become releasable.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Awaitable, Callable

from repro.core.contributions import ContributionError, ContributionServer
from repro.core.pme import PriceModelingEngine
from repro.serve.batching import MicroBatcher
from repro.util.parallel import resolve_workers
from repro.serve.http import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    HttpError,
    Request,
    read_request,
    render_response,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.store import ModelStore, build_snapshot

log = logging.getLogger(__name__)

#: Routes and the methods they accept (anything else is a 405).
ROUTES: dict[str, tuple[str, ...]] = {
    "/estimate": ("POST",),
    "/model": ("GET",),
    "/contribute": ("POST",),
    "/healthz": ("GET",),
    "/metrics": ("GET",),
}


def _json_body(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


class _Response:
    """A handler's verdict, rendered per-connection for keep-alive."""

    __slots__ = ("status", "body", "headers")

    def __init__(self, status: int, body: bytes = b"",
                 headers: dict[str, str] | None = None):
        self.status = status
        self.body = body
        self.headers = headers or {}

    @classmethod
    def json(cls, status: int, payload: dict,
             headers: dict[str, str] | None = None) -> "_Response":
        return cls(status, _json_body(payload), headers)

    @classmethod
    def error(cls, status: int, detail: str) -> "_Response":
        return cls.json(status, {"error": detail})


class PmeServer:
    """An asyncio HTTP server wrapping a packaged price model.

    ``package`` alone gives a serve-only deployment (estimation, model
    distribution, contribution *collection*); passing a ``pme`` whose
    state holds campaign ground truth additionally enables retraining:
    once ``retrain_min_new_rows`` new k-anonymous rows are releasable,
    the server retrains off-loop and hot-swaps the package.
    """

    def __init__(
        self,
        package: dict | None = None,
        *,
        pme: PriceModelingEngine | None = None,
        contributions: ContributionServer | None = None,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        retrain_min_new_rows: int = 50,
        workers: int | None = 1,
        max_body_bytes: int = MAX_BODY_BYTES,
    ):
        if package is None:
            if pme is None or pme.state.model is None:
                raise ValueError(
                    "need a model package, or a PME with a trained model"
                )
            package = pme.package_model()
        self.pme = pme
        self.store = ModelStore(package)
        self.contributions = contributions or ContributionServer()
        self.metrics = ServeMetrics()
        self.retrain_min_new_rows = int(retrain_min_new_rows)
        # Validate the retrain knobs eagerly -- a bad value should fail
        # at construction, not mid-retrain inside the executor job.
        self.workers = None if workers is None else resolve_workers(workers)
        self.max_body_bytes = int(max_body_bytes)
        self._batcher = MicroBatcher(
            self._predict_batch,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            on_batch=self.metrics.on_batch,
            on_queue_wait=self.metrics.on_queue_wait,
        )
        self._server: asyncio.base_events.Server | None = None
        self._retrain_task: asyncio.Task | None = None
        self._retrained_at_rows = 0
        self.host: str | None = None
        self.port: int | None = None

    # -- properties ---------------------------------------------------------

    @property
    def retrain_enabled(self) -> bool:
        return self.pme is not None and self.pme.state.campaign_a1 is not None

    @property
    def retrain_in_progress(self) -> bool:
        return self._retrain_task is not None

    # -- lifecycle ----------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving; ``port=0`` picks an ephemeral port."""
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port, limit=MAX_HEADER_BYTES * 2
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            raise RuntimeError("call start() first")
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._retrain_task is not None:
            # The executor job cannot be interrupted; let it finish so
            # the PME state is never left half-mutated.
            await asyncio.shield(self._retrain_task)
        await self._batcher.stop()

    def run(self, host: str = "127.0.0.1", port: int = 8080) -> None:
        """Blocking convenience entry point (the CLI uses it)."""

        async def _main() -> None:
            await self.start(host, port)
            assert self._server is not None
            try:
                await self._server.serve_forever()
            finally:
                await self.stop()

        asyncio.run(_main())

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(
                        reader, max_body_bytes=self.max_body_bytes
                    )
                except HttpError as exc:
                    self.metrics.on_response(exc.status)
                    writer.write(
                        render_response(
                            exc.status,
                            _json_body({"error": exc.detail}),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                response = await self._dispatch(request)
                self.metrics.on_response(response.status)
                writer.write(
                    render_response(
                        response.status,
                        response.body,
                        headers=response.headers,
                        keep_alive=request.keep_alive,
                    )
                )
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(self, request: Request) -> _Response:
        methods = ROUTES.get(request.path)
        if methods is None:
            return _Response.error(404, f"no such endpoint: {request.path}")
        self.metrics.on_request(request.path)
        if request.method not in methods:
            return _Response.json(
                405,
                {"error": f"{request.method} not allowed on {request.path}"},
                headers={"Allow": ", ".join(methods)},
            )
        handler: Callable[[Request], Awaitable[_Response]] = {
            "/estimate": self._handle_estimate,
            "/model": self._handle_model,
            "/contribute": self._handle_contribute,
            "/healthz": self._handle_healthz,
            "/metrics": self._handle_metrics,
        }[request.path]
        try:
            return await handler(request)
        except Exception as exc:  # noqa: BLE001 - single request must not kill the loop
            if request.path == "/estimate":
                self.metrics.on_estimate_error()
            return _Response.error(500, f"{type(exc).__name__}: {exc}")

    # -- endpoint handlers ---------------------------------------------------

    def _parse_json(self, request: Request) -> dict:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload

    def _predict_batch(self, rows: list[dict]) -> list[tuple[float, int]]:
        """One vectorised pass for a whole micro-batch.

        The snapshot is captured once per batch: every request in the
        batch is answered by exactly one model version, and the result
        is bit-identical to a per-row ``estimate_one`` against that
        snapshot (the flat traversal is row-independent and the
        time-correction multiply is element-wise).
        """
        snapshot = self.store.current
        estimates = snapshot.estimator.estimate(rows).prices
        return [(float(v), snapshot.version) for v in estimates]

    async def _handle_estimate(self, request: Request) -> _Response:
        try:
            payload = self._parse_json(request)
        except HttpError as exc:
            return _Response.error(exc.status, exc.detail)
        features = payload.get("features")
        if not isinstance(features, dict):
            return _Response.error(
                400,
                "need {'features': {...}} -- one feature object per request; "
                "fire requests concurrently and the server micro-batches them",
            )
        start = time.perf_counter()
        estimate, version = await self._batcher.submit(features)
        self.metrics.on_estimate_latency(time.perf_counter() - start)
        return _Response.json(
            200, {"estimated_cpm": estimate, "model_version": version}
        )

    async def _handle_model(self, request: Request) -> _Response:
        snapshot = self.store.current
        headers = {
            "ETag": snapshot.etag,
            "X-Model-Version": str(snapshot.version),
        }
        candidates = [
            tag.strip()
            for tag in request.header("if-none-match").split(",")
            if tag.strip()
        ]
        if snapshot.etag in candidates or "*" in candidates:
            self.metrics.on_model_not_modified()
            return _Response(304, b"", headers)
        return _Response(200, snapshot.body, headers)

    async def _handle_contribute(self, request: Request) -> _Response:
        try:
            payload = self._parse_json(request)
        except HttpError as exc:
            return _Response.error(exc.status, exc.detail)
        token = payload.get("contributor_token")
        if isinstance(token, bool) or not isinstance(token, int):
            return _Response.error(400, "contributor_token must be an integer")
        records = payload.get("records")
        if not isinstance(records, list) or not all(
            isinstance(r, dict) for r in records
        ):
            return _Response.error(400, "records must be a list of objects")
        accepted = 0
        rejected = 0
        errors: list[str] = []
        for record in records:
            try:
                self.contributions.submit(record, token)
                accepted += 1
            except ContributionError as exc:
                rejected += 1
                if len(errors) < 3:
                    errors.append(str(exc))
        self._maybe_schedule_retrain()
        return _Response.json(
            200,
            {
                "accepted": accepted,
                "rejected": rejected,
                "errors": errors,
                "stats": self.contributions.stats,
            },
        )

    async def _handle_healthz(self, request: Request) -> _Response:
        return _Response.json(
            200,
            {
                "status": "ok",
                "model_version": self.store.current.version,
                "uptime_seconds": time.time() - self.metrics.started_at,
            },
        )

    async def _handle_metrics(self, request: Request) -> _Response:
        snapshot = self.store.current
        payload = {
            "model": {
                "version": snapshot.version,
                "etag": snapshot.etag,
                "age_seconds": snapshot.age_seconds,
                "swaps": self.store.swap_count,
            },
            "contributions": self.contributions.stats,
            "retrain": {
                "enabled": self.retrain_enabled,
                "in_progress": self.retrain_in_progress,
                "min_new_rows": self.retrain_min_new_rows,
                "rows_at_last_retrain": self._retrained_at_rows,
            },
            # Request, response, estimate and retrain counts live here,
            # as ``serve.*`` registry series.
            "obs": {
                "metrics": self.metrics.obs_snapshot(),
                "last_estimate_trace": self._batcher.last_trace,
            },
        }
        return _Response.json(200, payload)

    # -- retraining / hot reload --------------------------------------------

    def _maybe_schedule_retrain(self) -> None:
        """Kick off a retrain when enough new rows became releasable."""
        if not self.retrain_enabled or self._retrain_task is not None:
            return
        releasable = self.contributions.stats["releasable"]  # O(1)
        if releasable - self._retrained_at_rows < self.retrain_min_new_rows:
            return
        self._retrain_task = asyncio.get_running_loop().create_task(
            self._retrain()
        )

    async def _retrain(self) -> None:
        attempted_rows = self.contributions.stats["releasable"]
        try:
            # Full scan once, at retrain time -- not per /metrics poll.
            rows, prices = self.contributions.training_rows()
            next_version = self.store.current.version + 1
            pme = self.pme
            assert pme is not None
            workers = self.workers

            def job():
                pme.retrain_with_contributions(rows, prices, workers=workers)
                return build_snapshot(pme.package_model(), version=next_version)

            snapshot = await asyncio.get_running_loop().run_in_executor(
                None, job
            )
            self.store.install(snapshot)
        except Exception:
            log.exception(
                "retrain on %d rows failed; still serving model version %d",
                attempted_rows, self.store.current.version,
            )
            self.metrics.on_retrain("failed")
        else:
            self.metrics.on_retrain("installed")
        finally:
            # Failed or not, the next attempt waits for a fresh floor of
            # rows instead of retrying on every /contribute.
            self._retrained_at_rows = attempted_rows
            self._retrain_task = None
        # More rows may have crossed the floor while we trained.
        self._maybe_schedule_retrain()
