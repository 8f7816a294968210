"""The workloads: the three users of the system the paper describes.

* ``pipeline`` -- the PME operator running the batch methodology
  (paper sections 3.2, 5-6) end to end.
* ``client_service`` -- first the YourAdValue client (section 3.3)
  watching a weblog one request at a time and estimating encrypted
  prices locally; then clients of the PME service asking for estimates
  over real sockets, at a nominal rate and up a ladder of rates; last,
  a lower rate while YourAdValue clients contribute cleartext prices
  that trigger retrains and model swaps.

Every input derives from the seed: the simulated dataset D and market,
the draw of feature rows sent to the server and the order in which
users contribute.  Scale, rates and the number of retrains are fixed,
so two seeds do the same amount of work on different data.

Each workload builds its inputs ``SETUPS`` times (the median is
``setup_s``), measures for about ``seconds`` seconds, then checks the
outputs; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import statistics
import time
from dataclasses import dataclass, replace

import numpy as np

from repro import (
    Estimator,
    PriceModelingEngine,
    PublisherDirectory,
    WeblogAnalyzer,
    YourAdValue,
    compute_user_costs,
    simulate_dataset,
)
from repro.core.contributions import ContributionServer
from repro.core.cost import observation_features
from repro.core.pme import mopub_cleartext_prices
from repro.serve import PmeServer
from repro.trace import build_market, default_config
from repro.util.rng import RngRegistry

from openloop import Client, Phase, Reply, open_loop, percentile

#: Dataset D scale (share of the paper's 1,594 users and 120k auctions).
#: At 0.02 the simulator and probe campaigns are about 2/3 of the
#: pipeline, as at larger scales, and one pipeline takes a few seconds.
#: Its 31 users also keep the share of encrypted rows in the replayed
#: weblog steadier from seed to seed than 15 users did.
SCALE = 0.02
#: Probe auctions per Table-5 setup (the quickstart's floor at this scale).
AUCTIONS_PER_SETUP = 10
#: A smaller pipeline that warms imports and memo caches in set-up.
WARMUP_SCALE = 0.005
SETUPS = 3

NOMINAL_RPS = 100.0
#: Shares of ``seconds`` for the replay and the nominal windows of
#: ``client_service``; the ladder (one second per rung) and the
#: contribution phase (about 10 s: three retrains) come on top.
REPLAY_SHARE = 0.4
NOMINAL_SHARE = 0.3
#: Pause between a retrain reaching readers and the next contribution.
CONTRIB_PAUSE_S = 1.0
CONTRIB_TIMEOUT_S = 60.0
#: /estimate rate beside the contributions.  Below the nominal rate on
#: purpose: while a retrain runs in the executor thread it takes the
#: interpreter lock often enough that one socket serves only ~40-50
#: req/s, so at 100 req/s the queue grows for the whole retrain and the
#: latency measures queue length, which varied 2x between runs.
CONTRIB_RPS = 25.0
#: The nominal phase runs as this many equal windows; its p99 is the
#: median of their p99s, so one stall from another tenant of the
#: machine moves one window rather than the metric.
P99_WINDOWS = 10
#: Offered rates after the nominal phase, 1.1x apart; the search stops
#: at the first rung that misses the limit.  It reaches far past the
#: ~200 req/s a 2-core box served when the benchmark was written.
LADDER = tuple(round(125 * 1.1 ** k) for k in range(36))
RUNG_S = 1.0
#: Sockets, like threads, never exceed the cores of the machine.
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
#: Times the contribution stream crosses the retrain floor.
RETRAINS = 3
#: ``PmeServer``'s default retrain floor (new releasable rows).
RETRAIN_FLOOR = 50


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# -- the batch methodology ------------------------------------------------------


@dataclass
class World:
    """One seed's dataset D, analysis and trained, packaged PME."""

    seed: int
    dataset: object
    directory: PublisherDirectory
    analysis: object
    pme: PriceModelingEngine
    package: dict


def build_world(seed: int, scale: float = SCALE,
                auctions_per_setup: int = AUCTIONS_PER_SETUP) -> World:
    """The pipeline up to the packaged model, with library defaults."""
    config = replace(default_config().scaled(scale), seed=seed)
    dataset = simulate_dataset(config)
    directory = PublisherDirectory.from_universe(dataset.universe)
    analysis = WeblogAnalyzer(directory).analyze(dataset.rows, workers=1)
    pme = PriceModelingEngine(seed=seed)
    pme.bootstrap(analysis, use_paper_features=True)
    market = build_market(config, RngRegistry(config.seed))
    pme.run_probe_campaigns(market, auctions_per_setup=auctions_per_setup)
    pme.train_model(evaluate=False, workers=1)
    pme.compute_time_correction(mopub_cleartext_prices(analysis))
    return World(seed, dataset, directory, analysis, pme, pme.package_model())


def run_pipeline(seed: int, scale: float = SCALE,
                 auctions_per_setup: int = AUCTIONS_PER_SETUP):
    """The whole methodology: ``build_world`` then the cost table."""
    world = build_world(seed, scale, auctions_per_setup)
    costs = compute_user_costs(world.analysis,
                               Estimator.from_package(world.package),
                               world.pme.state.time_correction)
    return world, costs


def pipeline_digests(world: World, costs: dict) -> dict[str, str]:
    state = world.pme.state
    return {
        "weblog_rows": _digest(world.dataset.rows),
        "a1_prices": _digest(state.campaign_a1.prices().tolist()),
        "a2_prices": _digest(state.campaign_a2.prices().tolist()),
        "cost_table": _digest(
            (c.user_id, c.cleartext_cpm, c.cleartext_corrected_cpm,
             c.encrypted_estimated_cpm, c.n_cleartext, c.n_encrypted)
            for c in costs.values()),
    }


def pipeline_invariants(world: World, costs: dict) -> list[str]:
    """Broken invariants of one pipeline run (empty when all hold)."""
    problems = []
    users = {o.user_id for o in world.analysis.observations}
    if set(costs) != users:
        problems.append(f"{len(users ^ set(costs))} users costed wrongly")
    state = world.pme.state
    prices = np.concatenate([state.campaign_a1.prices(),
                             state.campaign_a2.prices(),
                             [c.total_cpm for c in costs.values()]])
    if not (np.isfinite(prices).all() and (prices > 0).all()):
        problems.append("a price or cost is not finite and > 0")
    return problems


def pipeline(ctx, seed: int, seconds: float) -> None:
    for _ in range(SETUPS):
        with ctx.setup():
            run_pipeline(seed, WARMUP_SCALE, auctions_per_setup=1)

    walls, cpus, rows, digests = [], [], 0, []
    with ctx.measure():
        deadline = time.perf_counter() + seconds
        while not walls or time.perf_counter() < deadline:
            t0, c0 = time.perf_counter(), time.process_time()
            world, costs = run_pipeline(seed)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            rows = len(world.dataset.rows)
            digests.append(pipeline_digests(world, costs))
            problems = pipeline_invariants(world, costs)
            if digests[-1] != digests[0]:
                problems.append("digests differ from the first run")
            ctx.attempt(1, failed=bool(problems), problems=problems)
            del world, costs

    wall = median(walls)
    ctx.named("pipeline_s", wall, "s", n=len(walls))
    ctx.named("pipeline_cpu_s", median(cpus), "s", n=len(cpus))
    ctx.named("pipeline_rows", rows, "rows")
    ctx.record["digests"] = digests[0]
    ctx.record["pipeline_runs_s"] = walls
    ctx.e2e(p50_ms=wall * 1000, p99_ms=max(walls) * 1000,
            rate_per_s=rows / wall)


# -- the YourAdValue client ----------------------------------------------------------


def _encrypted_reference(world: World) -> list[float]:
    """One batched estimate over the encrypted rows, in replay order."""
    encrypted = sorted((o for o in world.analysis.observations if o.is_encrypted),
                       key=replay_order)
    rows = [observation_features(o) for o in encrypted]
    return Estimator.from_package(world.package).estimate(rows).prices.tolist()


def replay_order(row):
    """All users in user-then-time order, as the extension sees them."""
    return (row.user_id, row.timestamp)


class Replay:
    """Fresh YourAdValue clients fed ``rows`` one at a time, pass after
    pass, timing every encrypted ``observe()``.

    The workload runs it in slices between the service phases, so its
    samples span the whole run rather than one stretch of it: on a
    shared machine the speed changes over tens of seconds.  Every
    pass's ledger must equal one batched estimate.
    """

    def __init__(self, world: World, rows: list):
        self.world = world
        self.rows = rows
        self.enc_ms: list[float] = []
        self.observed = 0
        self.busy = 0.0
        self.ledgers: list[list[float]] = []

    def run(self, seconds: float) -> None:
        """Whole passes until ``seconds`` have gone (at least one)."""
        clock = time.perf_counter
        deadline = clock() + seconds
        passes = 0
        while not passes or clock() < deadline:
            client = YourAdValue(self.world.package, self.world.directory)
            observe = client.observe
            enc_ms = self.enc_ms
            start = clock()
            for row in self.rows:
                t0 = clock()
                entry = observe(row)
                if entry is not None and entry.encrypted:
                    enc_ms.append((clock() - t0) * 1000.0)
            self.busy += clock() - start
            self.observed += len(self.rows)
            self.ledgers.append([e.amount_cpm for e in client.ledger if e.encrypted])
            passes += 1

    def report(self, ctx) -> None:
        reference = _encrypted_reference(self.world)
        mismatched = sum(
            len(reference) if len(ledger) != len(reference)
            else sum(a != b for a, b in zip(ledger, reference))
            for ledger in self.ledgers)
        ctx.attempt(self.observed, failed=mismatched,
                    problems=[f"{mismatched} encrypted amounts differ from one "
                              "batched estimate"] if mismatched else [])
        p50, p99 = percentile(self.enc_ms, 50), percentile(self.enc_ms, 99)
        # Encrypted prices estimated per second spent observing them:
        # unlike rows per second it does not move with the seed's share
        # of encrypted rows (4-6% of the weblog).
        enc_rate = 1000.0 * len(self.enc_ms) / sum(self.enc_ms)
        ctx.named("replay_rows_per_s", self.observed / self.busy, "rows/s",
                  n=self.observed)
        ctx.named("enc_observe_p50_ms", p50, "ms", n=len(self.enc_ms))
        ctx.named("enc_observe_p99_ms", p99, "ms", n=len(self.enc_ms))
        ctx.named("enc_observes_per_s", enc_rate, "1/s", n=len(self.enc_ms))
        ctx.record["replay_passes"] = len(self.ledgers)
        ctx.e2e(p50_ms=p50, p99_ms=p99, rate_per_s=enc_rate)


# -- the PME service -------------------------------------------------------------


def feature_pool(world: World) -> list[dict]:
    """Distinct, realistic feature rows: A1 ground truth + D's encrypted."""
    pool: dict[str, dict] = {}
    rows = world.pme.state.campaign_a1.feature_rows() + [
        observation_features(o) for o in world.analysis.observations
        if o.is_encrypted]
    for row in rows:
        pool.setdefault(json.dumps(row, sort_keys=True), row)
    return list(pool.values())


def estimate_bodies(pool: list[dict], indices) -> tuple[list[bytes], list[int]]:
    indices = [int(i) for i in indices]
    return [json.dumps({"features": pool[i]}).encode() for i in indices], indices


class Service:
    """A started ``PmeServer`` plus the client side of one workload."""

    def __init__(self, server: PmeServer, world: World, seed: int, plan):
        self.server = server
        self.plan = plan
        self.world = world
        self.pool = feature_pool(world)
        self.rows = sorted(world.dataset.rows, key=replay_order)
        self.rng = np.random.default_rng([seed, 1])
        self.clients = [Client("127.0.0.1", server.port) for _ in range(CONNECTIONS)]
        #: model_version -> snapshot that answered it (captured on the fly).
        self.snapshots: dict[int, object] = {}
        self.version_problems: list[str] = []

    @classmethod
    async def start(cls, seed: int) -> "Service":
        """Build the world, the replay order, the contribution plan and
        a started server whose PME holds campaign A1 (so retraining is
        on); warm the client and the estimate path."""
        world = build_world(seed)
        plan = plan_retrains(contribution_stream(world, seed), RETRAINS)
        server = PmeServer(pme=world.pme, retrain_min_new_rows=plan[0])
        await server.start(port=0)
        service = cls(server, world, seed, plan)
        YourAdValue(world.package, world.directory).observe_many(service.rows[:500])
        bodies, _ = estimate_bodies(service.pool, range(min(64, len(service.pool))))
        for body in bodies:  # warm-up: connections, first forest walks
            await service.clients[0].request("POST", "/estimate", body)
        return service

    def draw(self, n: int) -> tuple[list[bytes], list[int]]:
        return estimate_bodies(self.pool, self.rng.integers(len(self.pool), size=n))

    def on_reply(self, reply: Reply) -> None:
        if reply.payload is None:
            return
        version = reply.payload.get("model_version")
        if version not in self.snapshots:
            snapshot = self.server.store.current
            if snapshot.version != version:
                self.version_problems.append(
                    f"reply version {version} but store holds {snapshot.version}")
            self.snapshots[version] = snapshot

    async def scrape(self) -> dict:
        status, raw = await self.clients[0].request("GET", "/metrics")
        return json.loads(raw) if status == 200 else {}

    async def stop(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.stop()

    def check(self, phases: list[Phase], indices: list[list[int]]) -> int:
        """Mismatched 200 replies and version regressions; returns failures."""
        refs = {v: s.estimator.estimate(self.pool).prices.tolist()
                for v, s in self.snapshots.items()}
        bad = len(self.version_problems)
        for phase, idx in zip(phases, indices):
            last = 0
            for reply in phase.replies:
                if reply.payload is None:
                    continue
                version = reply.payload.get("model_version", 0)
                value = reply.payload.get("estimated_cpm")
                if version < last or value != refs[version][idx[reply.index]]:
                    bad += 1
                last = max(last, version)
        return bad


def serve_layer_metrics(scrape: dict, client_ms: list[float]) -> dict:
    """``serve.*`` and ``contrib.*`` from a ``GET /metrics`` payload."""
    registry = scrape.get("obs", {}).get("metrics", {})

    def stat(name: str, key: str) -> float:
        return float(registry.get(name, {}).get(key) or 0.0)

    flushes = stat("serve.batch.flushes", "total")
    # The server's histogram bins are a factor of 2 wide, so its p50
    # cannot be subtracted from the client's; the means can.
    server_mean_ms = stat("serve.estimate.latency_seconds", "mean") * 1000
    contrib = scrape.get("contributions", {})
    return {
        "serve.flushes": flushes,
        "serve.batch_size_mean": stat("serve.estimates", "total") / flushes
        if flushes else 0.0,
        "serve.queue_wait_p50_ms": stat("serve.batch.queue_wait_seconds", "p50") * 1000,
        "serve.queue_wait_p99_ms": stat("serve.batch.queue_wait_seconds", "p99") * 1000,
        "serve.server_p99_ms": stat("serve.estimate.latency_seconds", "p99") * 1000,
        "serve.http_overhead_ms": statistics.fmean(client_ms) - server_mean_ms
        if client_ms else 0.0,
        "serve.model_swaps": float(scrape.get("model", {}).get("swaps", 0)),
        "contrib.accepted": float(contrib.get("accepted", 0)),
        "contrib.rejected": float(contrib.get("rejected", 0)),
        "contrib.releasable_ratio": contrib.get("releasable", 0) / contrib["stored"]
        if contrib.get("stored") else 0.0,
    }


def loadgen_metrics(phases: list[Phase]) -> dict:
    lags = [lag for p in phases for lag in p.lags_ms]
    return {
        "loadgen.sent": float(sum(p.sent for p in phases)),
        "loadgen.failed": float(sum(p.failed for p in phases)),
        "loadgen.lag_p99_ms": percentile(lags, 99),
    }


async def _setups(ctx, seed: int) -> Service:
    service = None
    for _ in range(SETUPS):
        if service is not None:
            await service.stop()
        with ctx.setup():
            service = await Service.start(seed)
    return service


# -- contributions and retraining --------------------------------------------------


def contribution_stream(world: World, seed: int) -> list[tuple[int, list[dict]]]:
    """Per-user ``contribution_records()`` of replayed clients, seed order.

    One client replays the users in turn, its ledger emptied between
    them, so the forest is deserialised once rather than per user.
    Encrypted win notifications are left out of the replay: they never
    reach ``contribution_records()``, and estimating them would only
    slow set-up.
    """
    encrypted = {id(d.row) for d in world.analysis.notifications
                 if d.parsed.is_encrypted}
    by_user: dict[str, list] = {}
    for row in world.dataset.rows:
        if id(row) not in encrypted:
            by_user.setdefault(row.user_id, []).append(row)
    users = sorted(by_user)
    order = np.random.default_rng([seed, 2]).permutation(len(users))
    client = YourAdValue(world.package, world.directory)
    stream = []
    for token, i in enumerate(order, start=1):
        client.ledger = []
        client.observe_many(by_user[users[i]])
        records = client.contribution_records()
        if records:
            stream.append((token, records))
    return stream


def plan_retrains(stream, retrains: int) -> tuple[int, list[list], list[int]]:
    """A retrain floor the stream crosses ``retrains`` times, and where.

    The floor is the server's default, or lower if the stream is too
    small for it.  Crossing as early as possible keeps each retrain
    close to the campaign ground truth it extends, so its size varies
    little with the seed.

    Returns the floor, the batches of users (each ends with the post
    that crosses the floor) and the releasable rows at each crossing.
    The releasable count after each post comes from replaying the
    stream into a local ``ContributionServer`` with the server's
    k-anonymity rule, so the crossings are known in advance.
    """
    replica = ContributionServer()
    trajectory = []
    for token, records in stream:
        replica.submit_batch(records, token)
        trajectory.append(replica.stats["releasable"])
    for floor in range(RETRAIN_FLOOR, 0, -1):
        ends, last = [], 0
        for i, releasable in enumerate(trajectory):
            if releasable - last >= floor:
                ends.append(i)
                last = releasable
        if len(ends) >= retrains:
            ends = ends[:retrains]
            starts = [0] + [e + 1 for e in ends[:-1]]
            batches = [stream[a:b + 1] for a, b in zip(starts, ends)]
            return floor, batches, [trajectory[e] for e in ends]
    raise RuntimeError("contribution stream too small for the retrain plan")


async def contribution_phase(service: Service):
    """/estimate at ``CONTRIB_RPS`` on one socket while the planned
    contributions go in on the other.

    Each batch is sent ``CONTRIB_PAUSE_S`` after an estimate was
    answered by the model the previous batch triggered, and the phase
    ends that long after the last one was, so every retrain reaches
    readers however long it takes (up to ``CONTRIB_TIMEOUT_S``).
    Returns the estimate phase, its row indices, the time of each
    crossing post and the status of every post.
    """
    _, batches, _ = service.plan
    for idle in service.clients[1:]:  # keep to one estimate socket + this one
        await idle.close()
    contributor = Client("127.0.0.1", service.server.port)
    crossed: list[float] = []
    posts: list[int] = []
    stop = asyncio.Event()
    deadline = time.perf_counter() + CONTRIB_TIMEOUT_S

    async def answered_by(version: int) -> None:
        while version not in service.snapshots and time.perf_counter() < deadline:
            await asyncio.sleep(0.01)
        await asyncio.sleep(CONTRIB_PAUSE_S)

    async def contribute() -> None:
        try:
            for b, batch in enumerate(batches):
                await answered_by(b + 1)  # retrain b installs version b + 2
                for token, records in batch:
                    body = json.dumps({"contributor_token": token,
                                       "records": records}).encode()
                    status, _ = await contributor.request("POST", "/contribute", body)
                    posts.append(status)
                crossed.append(time.perf_counter())
            await answered_by(len(batches) + 1)
        finally:
            stop.set()

    bodies, idx = service.draw(int(CONTRIB_RPS * CONTRIB_TIMEOUT_S))
    try:
        phase, _ = await asyncio.gather(
            open_loop(service.clients[:1], bodies, CONTRIB_RPS, "contribute",
                      on_reply=service.on_reply, stop=stop),
            contribute())
        while service.server.retrain_in_progress:
            await asyncio.sleep(0.01)
    finally:
        await contributor.close()
    return phase, idx, crossed, posts


def install_times(phase: Phase, crossed: list[float]) -> list[float]:
    """Per retrain: crossing post to the first estimate its model answered.

    Retrain ``b`` installs model version ``b + 2`` (the initial is 1).
    """
    installs = []
    for b, t_cross in enumerate(crossed):
        answered = [r.done for r in phase.replies
                    if r.payload and r.payload.get("model_version", 0) >= b + 2
                    and r.done >= t_cross]
        if answered:
            installs.append(min(answered) - t_cross)
    return installs


async def client_service(ctx, seed: int, seconds: float) -> None:
    """The client replay and the service: nominal windows, the rate
    ladder and the contribution phase, each starting once the previous
    one has drained.

    The end-to-end metrics come from the replay, the steadiest part on a
    shared machine; it runs in four slices, before, between and after
    the service phases, and blocks the event loop, which is idle then.
    The service phases are recorded by name and carry the serve,
    contribution, retrain and swap layers in a traced run.
    """
    service = await _setups(ctx, seed)
    try:
        window = int(NOMINAL_RPS * seconds * NOMINAL_SHARE / P99_WINDOWS)
        phases, indices = [], []
        replay = Replay(service.world, service.rows)
        slice_s = seconds * REPLAY_SHARE / 4
        with ctx.measure():
            replay.run(slice_s)
            for w in range(P99_WINDOWS):
                bodies, idx = service.draw(window)
                phase = await open_loop(service.clients, bodies, NOMINAL_RPS,
                                        f"nominal_{w + 1}", on_reply=service.on_reply)
                phases.append(phase), indices.append(idx)
            replay.run(slice_s)
            best = phases[-1]  # the nominal rate stands if no rung meets the limit
            for rate in LADDER:
                bodies, idx = service.draw(int(rate * RUNG_S))
                rung = await open_loop(service.clients, bodies, rate,
                                       f"ladder_{rate}", on_reply=service.on_reply)
                passed = rung.meets_limit()
                rung.extra["meets_limit"] = passed
                phases.append(rung), indices.append(idx)
                if not passed:
                    break
                best = rung
            replay.run(slice_s)
            contrib, idx, crossed, posts = await contribution_phase(service)
            phases.append(contrib), indices.append(idx)
            scrape = await service.scrape()
            replay.run(slice_s)
        failed = service.check(phases, indices)
    finally:
        await service.stop()

    replay.report(ctx)
    installs = install_times(contrib, crossed)
    problems = []
    if failed:
        problems.append(f"{failed} replies differ from the in-process estimate")
    if len(installs) != RETRAINS:
        problems.append(f"{len(installs)} of {RETRAINS} retrains reached readers")
    bad_posts = sum(status != 200 for status in posts)
    ctx.attempt(sum(p.sent for p in phases) + len(posts),
                failed=failed + sum(p.failed for p in phases) + bad_posts
                + RETRAINS - len(installs),
                problems=problems)

    nominal = phases[:P99_WINDOWS]
    lat = [ms for p in nominal for ms in p.latencies_ms]
    p50 = percentile(lat, 50)
    p99 = median([percentile(p.latencies_ms, 99) for p in nominal])
    contrib_lat = contrib.latencies_ms
    ctx.named("serve_p50_ms", p50, "ms", n=len(lat))
    ctx.named("serve_p99_ms", p99, "ms", n=len(lat))
    ctx.named("serve_p99_whole_phase_ms", percentile(lat, 99), "ms", n=len(lat))
    ctx.named("serve_max_rps", best.achieved_rate, "req/s", n=best.sent)
    ctx.named("contrib_p99_ms", percentile(contrib_lat, 99), "ms", n=len(contrib_lat))
    ctx.named("retrain_install_s", median(installs), "s", n=len(installs))
    floor, _, releasable = service.plan
    ctx.record["phases"] = [p.summary() for p in phases]
    ctx.record["retrains"] = {"floor": floor, "releasable_at_crossing": releasable,
                              "install_s": installs, "posts": len(posts)}
    ctx.layer_extra.update(serve_layer_metrics(
        scrape, [ms for p in phases for ms in p.latencies_ms]))
    ctx.layer_extra.update(loadgen_metrics(phases))


WORKLOADS = {
    "pipeline": pipeline,
    "client_service": client_service,
}
