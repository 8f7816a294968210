"""End-to-end simulation of dataset D (and campaign-period traffic).

Builds the market (exchanges, DSPs, encryption policy), synthesises the
user population, and replays a period of browsing: every ad-eligible
pageview triggers an RTB auction whose win notification lands in the
weblog exactly as the paper's proxy observed it -- cleartext price for
some ADX-DSP pairs, 28-byte encrypted blob for others.

Market composition encodes the paper's measurements:

* auction volume per exchange follows Figure 3's RTB shares;
* the four ADXs the paper probes for encrypted prices (DoubleClick,
  Rubicon, OpenX, PulsePoint) host "premium" DSPs bidding ~1.75x, so
  encrypted charge prices emerge higher (section 6.1's 1.7x finding);
* per-pair encryption adoption dates are staggered so the encrypted
  pair fraction rises through 2015 (Figure 2) and roughly a quarter of
  mobile impressions end up encrypted (section 2.4's ~26%).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.rtb.bidding import Dsp, FeatureBidEngine
from repro.rtb.campaign import Campaign, TargetingSpec
from repro.rtb.cookiesync import CookieSyncRegistry
from repro.rtb.entities import ENCRYPTING_ADXS, MARKET_SHARES, Dmp
from repro.rtb.exchange import AdExchange, PairEncryptionPolicy
from repro.rtb.openrtb import BidRequest, Device, Geo, Impression, UserInfo
from repro.trace.browsing import PublisherChooser, sample_event_times
from repro.trace.population import UserProfile, activity_weights, build_population
from repro.trace.pricing import ENCRYPTED_PREMIUM, GroundTruthPriceModel
from repro.trace.publishers import MarketUniverse, build_universe, sample_slot_size
from repro.trace.weblog import (
    KIND_ANALYTICS,
    KIND_CONTENT,
    KIND_NURL,
    KIND_SYNC,
    GroundTruthImpression,
    HttpRequest,
    Weblog,
)
from repro.util.rng import DEFAULT_SEED, RngRegistry, WeightedDraw
from repro.util.timeutil import Period, epoch
from repro.rtb.cookiesync import synced_uid

#: DSPs that bid at market value and receive cleartext notifications.
STANDARD_DSPS: tuple[str, ...] = (
    "Criteo-DSP", "MediaMath-DSP", "AppNexus-DSP", "Adform", "DataXu",
)

#: DSPs that bid aggressively (retargeting-style) and buy only through
#: the encrypting exchanges, demanding price confidentiality.
PREMIUM_DSPS: tuple[str, ...] = ("DBM", "Turn-DSP", "InviteMedia")


@dataclass(frozen=True)
class SimulationConfig:
    """Scale and seed knobs for one simulated dataset."""

    #: Paper scale: 1,594 users.  The auction target is set so the
    #: *median user's* annual cost lands at the paper's ~25 CPM given
    #: our per-impression price anchors; it exceeds the paper's 78,560
    #: impressions because our activity distribution routes a larger
    #: share of volume to the heavy-user tail (see EXPERIMENTS.md).
    n_users: int = 1594
    target_auctions: int = 120_000
    period: Period = Period.for_year(2015)
    seed: int = DEFAULT_SEED
    n_web_publishers: int = 420
    n_app_publishers: int = 180
    n_advertisers: int = 80
    #: Extra (non-auctioned) content pageviews per auctioned one.
    content_rows_per_auction: float = 2.0
    #: Probability a won impression triggers a cookie-sync attempt.
    sync_probability: float = 0.25
    #: Probability a pageview fires an analytics beacon.
    analytics_probability: float = 0.25
    floor_cpm: float = 0.01

    def scaled(self, factor: float) -> "SimulationConfig":
        """A proportionally smaller/larger configuration."""
        return replace(
            self,
            n_users=max(10, int(self.n_users * factor)),
            target_auctions=max(100, int(self.target_auctions * factor)),
        )


def default_config() -> SimulationConfig:
    """Paper-scale dataset D configuration (1,594 users, ~78k impressions)."""
    return SimulationConfig()


def small_config(seed: int = DEFAULT_SEED) -> SimulationConfig:
    """A fast configuration for tests (~2k auctions)."""
    return SimulationConfig(
        n_users=80,
        target_auctions=2_000,
        n_web_publishers=60,
        n_app_publishers=30,
        n_advertisers=20,
        seed=seed,
    )


@dataclass
class MarketState:
    """The fixed market of one simulation run."""

    universe: MarketUniverse
    exchanges: dict[str, AdExchange]
    dsps: list[Dsp]
    policy: PairEncryptionPolicy
    value_model: GroundTruthPriceModel
    dmp: Dmp
    sync_registry: CookieSyncRegistry


def _build_campaigns(
    dsp_name: str,
    universe: MarketUniverse,
    rng: np.random.Generator,
    adxs: frozenset[str] | None,
    n_targeted: int = 7,
) -> list[Campaign]:
    """A DSP's campaign book: one catch-all plus IAB-targeted campaigns."""
    campaigns = [
        Campaign(
            campaign_id=f"{dsp_name}-all",
            advertiser="HouseAds",
            targeting=TargetingSpec(adxs=adxs),
            max_bid_cpm=60.0,
        )
    ]
    advertisers = list(universe.advertisers)
    for k in range(n_targeted):
        advertiser = advertisers[int(rng.integers(0, len(advertisers)))]
        campaigns.append(
            Campaign(
                campaign_id=f"{dsp_name}-c{k:02d}",
                advertiser=advertiser.name,
                targeting=TargetingSpec(
                    adxs=adxs,
                    iab_categories=frozenset({advertiser.iab_category}),
                ),
                max_bid_cpm=80.0,
            )
        )
    return campaigns


def _build_policy(rng: np.random.Generator) -> PairEncryptionPolicy:
    """Per-pair encryption adoption dates.

    Premium pairs adopted early (2014 to mid-2015); standard DSPs'
    pairs with encrypting exchanges adopt gradually from 2015 onwards
    (some after the observation year, keeping the trend alive); pairs
    with non-encrypting exchanges never adopt.
    """
    policy = PairEncryptionPolicy()
    all_dsps = STANDARD_DSPS + PREMIUM_DSPS
    for adx in MARKET_SHARES:
        for dsp in all_dsps:
            if adx not in ENCRYPTING_ADXS:
                policy.set_adoption(adx, dsp, None)
            elif dsp in PREMIUM_DSPS:
                adoption = rng.uniform(epoch(2014, 1, 1), epoch(2015, 7, 1))
                policy.set_adoption(adx, dsp, float(adoption))
            else:
                adoption = rng.uniform(epoch(2015, 2, 1), epoch(2017, 1, 1))
                policy.set_adoption(adx, dsp, float(adoption))
    return policy


def build_desktop_policy(rng: np.random.Generator) -> PairEncryptionPolicy:
    """Encryption adoption as observed on *desktop* RTB.

    The paper (section 2.4) contrasts mobile's ~26% encrypted share
    with the ~68% reported for desktop, where DoubleClick, Rubicon and
    OpenX championed encryption early.  This policy models that mature
    state: most pairs involving any major exchange encrypted well
    before 2015.  Useful for what-if runs of the mobile pipeline under
    desktop-like conditions (the paper's warning: "if these two [big]
    companies flipped their strategy ... it would dramatically impact
    the RTB-ecosystem's transparency").
    """
    policy = PairEncryptionPolicy()
    all_dsps = STANDARD_DSPS + PREMIUM_DSPS
    for adx in MARKET_SHARES:
        for dsp in all_dsps:
            if rng.random() < 0.68:
                policy.set_adoption(adx, dsp, epoch(2013, 1, 1))
            else:
                policy.set_adoption(adx, dsp, None)
    return policy


def build_market(config: SimulationConfig, rngs: RngRegistry | None = None) -> MarketState:
    """Construct the exchanges, DSPs and policy for one simulation."""
    rngs = rngs or RngRegistry(config.seed)
    universe = build_universe(
        rngs.get("universe"),
        n_web=config.n_web_publishers,
        n_app=config.n_app_publishers,
        n_advertisers=config.n_advertisers,
    )
    value_model = GroundTruthPriceModel()

    exchanges = {
        name: AdExchange(name, rngs.get(f"adx:{name}"), floor_cpm=config.floor_cpm)
        for name in MARKET_SHARES
    }

    dsps: list[Dsp] = []
    for name in STANDARD_DSPS:
        engine = FeatureBidEngine(
            value_model=value_model, noise_sigma=0.07, participation=0.9
        )
        dsps.append(
            Dsp(
                name,
                engine,
                rngs.get(f"dsp:{name}"),
                campaigns=_build_campaigns(name, universe, rngs.get(f"cmp:{name}"), None),
            )
        )
    for name in PREMIUM_DSPS:
        engine = FeatureBidEngine(
            value_model=value_model,
            noise_sigma=0.07,
            aggressiveness=ENCRYPTED_PREMIUM,
            participation=0.9,
        )
        dsps.append(
            Dsp(
                name,
                engine,
                rngs.get(f"dsp:{name}"),
                campaigns=_build_campaigns(
                    name,
                    universe,
                    rngs.get(f"cmp:{name}"),
                    adxs=frozenset(ENCRYPTING_ADXS),
                    n_targeted=3,
                ),
            )
        )

    return MarketState(
        universe=universe,
        exchanges=exchanges,
        dsps=dsps,
        policy=_build_policy(rngs.get("policy")),
        value_model=value_model,
        dmp=Dmp(),
        sync_registry=CookieSyncRegistry(),
    )


_CONTENT_BYTES_MEAN_LOG = np.log(40_000)
_ANALYTICS_DOMAINS = ("metrics.example-analytics.com", "stats.trackerhub.io")


def _content_row(
    ts: float,
    user: UserProfile,
    publisher,
    is_app: bool,
    rng: np.random.Generator,
) -> HttpRequest:
    path = f"/page/{int(rng.integers(1, 500))}" if not is_app else "/api/v2/content"
    return HttpRequest(
        timestamp=ts,
        user_id=user.user_id,
        url=f"https://{publisher.domain}{path}",
        domain=publisher.domain,
        user_agent=user.device.user_agent(is_app),
        kind=KIND_CONTENT,
        bytes_transferred=int(rng.lognormal(_CONTENT_BYTES_MEAN_LOG, 0.8)),
        duration_ms=float(rng.lognormal(np.log(350), 0.6)),
        client_ip=user.ip,
    )


def simulate_period(
    market: MarketState,
    users: list[UserProfile],
    period: Period,
    n_auctions: int,
    rngs: RngRegistry,
    weblog: Weblog,
    extra_dsps: list[Dsp] | None = None,
    config: SimulationConfig | None = None,
) -> None:
    """Replay one period of browsing into ``weblog``.

    ``extra_dsps`` lets probe-campaign DSPs join the market for the
    period (the mechanism behind the paper's A1/A2 campaigns).
    """
    config = config or SimulationConfig()
    rng = rngs.get(f"period:{period.start:.0f}")
    chooser = PublisherChooser(market.universe)
    dsps = market.dsps + list(extra_dsps or [])

    adx_names = list(MARKET_SHARES)
    adx_probs = np.array([MARKET_SHARES[n] for n in adx_names])
    draw_adx = WeightedDraw(adx_probs / adx_probs.sum())

    rows_before = len(weblog.rows)
    sold = 0
    with obs.span("trace.period", start=period.start, end=period.end) as period_span:
        weights = activity_weights(users)
        per_user = rng.multinomial(n_auctions, weights)

        auction_seq = 0
        for user, n_events in zip(users, per_user):
            if n_events == 0:
                continue
            times = sample_event_times(rng, period, int(n_events))
            times.sort()
            market.dmp.ingest(
                user.user_id,
                interests=user.interests,
                city=user.city.name,
                device_os=user.device.os,
            )
            for ts in times:
                ts = float(ts)
                is_app = bool(rng.random() < user.app_fraction)
                publisher = chooser.choose(rng, user, is_app)
                slot = sample_slot_size(rng, ts, user.device.device_type)
                adx_name = adx_names[draw_adx(rng)]
                exchange = market.exchanges[adx_name]

                auction_seq += 1
                auction_id = f"a-{period.start:.0f}-{auction_seq:08d}"
                request = BidRequest(
                    auction_id=auction_id,
                    timestamp=ts,
                    imp=Impression(
                        impression_id=f"{auction_id}-i0",
                        slot_size=slot,
                        bidfloor_cpm=config.floor_cpm,
                    ),
                    publisher=publisher.domain,
                    publisher_iab=publisher.iab_category,
                    device=Device(
                        os=user.device.os,
                        device_type=user.device.device_type,
                        user_agent=user.device.user_agent(is_app),
                        ip=user.ip,
                    ),
                    geo=Geo(country="ES", city=user.city.name),
                    user=UserInfo(
                        exchange_uid=synced_uid(adx_name, user.user_id),
                        buyer_uids=market.sync_registry.known_destinations(
                            user.user_id, adx_name
                        ),
                    ),
                    is_app=is_app,
                    adx=adx_name,
                )

                # The pageview itself.
                weblog.add_row(_content_row(ts, user, publisher, is_app, rng))
                if rng.random() < config.analytics_probability:
                    n_domains = len(_ANALYTICS_DOMAINS)
                    dom = _ANALYTICS_DOMAINS[int(rng.integers(0, n_domains))]
                    weblog.add_row(
                        HttpRequest(
                            timestamp=ts + 0.2,
                            user_id=user.user_id,
                            url=f"https://{dom}/collect?v=1&uid={user.user_id}",
                            domain=dom,
                            user_agent=user.device.user_agent(is_app),
                            kind=KIND_ANALYTICS,
                            bytes_transferred=int(rng.integers(200, 900)),
                            duration_ms=float(rng.lognormal(np.log(60), 0.5)),
                            client_ip=user.ip,
                        )
                    )

                record = exchange.run_auction(request, dsps, market.policy)
                if record is None:
                    continue
                sold += 1

                weblog.add_row(
                    HttpRequest(
                        timestamp=ts + 0.5,
                        user_id=user.user_id,
                        url=record.nurl,
                        domain=record.nurl.split("/", 3)[2],
                        user_agent=user.device.user_agent(is_app),
                        kind=KIND_NURL,
                        bytes_transferred=int(rng.integers(300, 1200)),
                        duration_ms=float(rng.lognormal(np.log(80), 0.5)),
                        client_ip=user.ip,
                    )
                )
                weblog.add_impression(GroundTruthImpression(user.user_id, record))

                if rng.random() < config.sync_probability:
                    dsp_name = record.notification.dsp
                    _, was_new = market.sync_registry.sync(
                        user.user_id, adx_name, dsp_name
                    )
                    if was_new:
                        weblog.add_row(
                            HttpRequest(
                                timestamp=ts + 0.7,
                                user_id=user.user_id,
                                url=market.sync_registry.beacon_url(
                                    user.user_id, adx_name, dsp_name
                                ),
                                domain=f"sync.{adx_name.lower()}.com",
                                user_agent=user.device.user_agent(is_app),
                                kind=KIND_SYNC,
                                bytes_transferred=int(rng.integers(100, 400)),
                                duration_ms=float(rng.lognormal(np.log(50), 0.5)),
                                client_ip=user.ip,
                            )
                        )

            # Non-auctioned browsing: shapes interest inference and the
            # per-user HTTP statistics of Table 4.
            n_extra = int(round(n_events * config.content_rows_per_auction))
            if n_extra > 0:
                extra_times = sample_event_times(rng, period, n_extra)
                for ts in extra_times:
                    is_app = bool(rng.random() < user.app_fraction)
                    publisher = chooser.choose(rng, user, is_app)
                    weblog.add_row(
                        _content_row(float(ts), user, publisher, is_app, rng)
                    )

        period_span.set(
            auctions=auction_seq, sold=sold, rows=len(weblog.rows) - rows_before
        )


def simulate_dataset(config: SimulationConfig | None = None) -> Weblog:
    """Produce a full dataset D under ``config`` (paper scale by default)."""
    config = config or default_config()
    rngs = RngRegistry(config.seed)
    market = build_market(config, rngs)
    users = build_population(rngs.get("population"), config.n_users)
    weblog = Weblog(
        period=config.period,
        users=users,
        universe=market.universe,
        policy=market.policy,
    )
    simulate_period(
        market,
        users,
        config.period,
        config.target_auctions,
        rngs,
        weblog,
        config=config,
    )
    weblog.finalize()
    return weblog

