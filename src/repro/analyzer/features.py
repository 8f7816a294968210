"""Feature extraction: the paper's Table 4 over a weblog.

For every detected price notification the extractor assembles a feature
vector ``F`` combining three groups:

* geo-temporal -- time of day, day of week, city (reverse IP), number
  of distinct locations seen for the user;
* user -- interest categories, device type/OS, web-beacon and
  cookie-sync counts, publishers visited, HTTP volume statistics;
* ad -- slot size, ADX, DSP, publisher IAB category, campaign
  popularity, advertiser traffic statistics, URL parameter count.

Everything is computed observer-side from the weblog rows; nothing
leaks from the simulator's private state.  ``full_vector`` additionally
expands categorical fields into indicator features, yielding the
~288-dimensional representation the paper's dimensionality-reduction
step starts from.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Iterable

from repro.analyzer.blacklist import GROUP_REST, DomainBlacklist
from repro.analyzer.detector import (
    DetectedNotification,
    is_sync_beacon,
    is_web_beacon,
)
from repro.analyzer.geoip import GeoIpResolver
from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.useragent import parse_user_agent
from repro.rtb.iab import DATASET_CATEGORIES, InterestProfile
from repro.trace.weblog import HttpRequest
from repro.util.timeutil import day_of_week, hour_of, is_weekend, month_of

#: The compact feature set S the paper selects in section 5.1.
CORE_FEATURES: tuple[str, ...] = (
    "context",        # app / web
    "device_type",
    "city",
    "time_of_day",    # 4-hour bucket index 0-5
    "day_of_week",    # 0-6
    "slot_size",
    "publisher_iab",
    "adx",
)


@dataclass
class UserAggregates:
    """Observer-side per-user statistics (Table 4's user features)."""

    n_requests: int = 0
    total_bytes: int = 0
    total_duration_ms: float = 0.0
    n_syncs: int = 0
    n_beacons: int = 0
    content_domains: set[str] = field(default_factory=set)
    cities: set[str] = field(default_factory=set)
    interests: InterestProfile = field(default_factory=lambda: InterestProfile(()))
    os: str = "Other"
    device_type: str = "unknown"

    @property
    def avg_bytes_per_request(self) -> float:
        return self.total_bytes / self.n_requests if self.n_requests else 0.0

    @property
    def avg_duration_per_request(self) -> float:
        return self.total_duration_ms / self.n_requests if self.n_requests else 0.0

    def merge_from(self, later: "UserAggregates") -> None:
        """Fold a *later* partial (same user, subsequent rows) into this one.

        Counters and sets are order-independent; the ``os`` /
        ``device_type`` fields keep the sequential "last informative row
        wins" semantics, so ``later`` must really come after ``self`` in
        weblog order.
        """
        self.n_requests += later.n_requests
        self.total_bytes += later.total_bytes
        self.total_duration_ms += later.total_duration_ms
        self.n_syncs += later.n_syncs
        self.n_beacons += later.n_beacons
        self.content_domains |= later.content_domains
        self.cities |= later.cities
        if later.os != "Other":
            self.os = later.os
        if later.device_type != "unknown":
            self.device_type = later.device_type


@dataclass
class AdvertiserAggregates:
    """Observer-side per-advertiser statistics (Table 4's ad features)."""

    n_requests: int = 0
    total_bytes: int = 0
    total_duration_ms: float = 0.0
    users: set[str] = field(default_factory=set)

    @property
    def avg_requests_per_user(self) -> float:
        return self.n_requests / len(self.users) if self.users else 0.0

    @property
    def avg_duration(self) -> float:
        return self.total_duration_ms / self.n_requests if self.n_requests else 0.0

    def merge_from(self, other: "AdvertiserAggregates") -> None:
        """Fold another partial for the same advertiser into this one."""
        self.n_requests += other.n_requests
        self.total_bytes += other.total_bytes
        self.total_duration_ms += other.total_duration_ms
        self.users |= other.users


class FeatureExtractor:
    """Precomputes aggregates over a weblog, then vectorises notifications.

    Two construction modes:

    * the classic batch constructor scans ``rows`` and ``notifications``
      eagerly (classifying each row itself), preserving the original
      API;
    * :meth:`incremental` returns an empty extractor that the
      single-pass and sharded analyzers feed row-by-row via
      :meth:`ingest_row` / :meth:`ingest_notification` (the *caller*
      supplies each row's blacklist group, so classification happens
      exactly once per row), then seal with :meth:`finalize_interests`.

    Partial extractors built over disjoint slices of a weblog can be
    recombined with :meth:`merge_from`; merging partials of the same
    shard in weblog order reproduces the sequential state exactly.
    """

    def __init__(
        self,
        rows: Iterable[HttpRequest],
        notifications: Iterable[DetectedNotification],
        blacklist: DomainBlacklist,
        directory: PublisherDirectory,
        geoip: GeoIpResolver | None = None,
    ):
        self.blacklist = blacklist
        self.directory = directory
        self.geoip = geoip or GeoIpResolver()
        self.users: dict[str, UserAggregates] = defaultdict(UserAggregates)
        self.advertisers: dict[str, AdvertiserAggregates] = defaultdict(
            AdvertiserAggregates
        )
        self.campaign_counts: Counter[str] = Counter()
        #: Raw per-user interest-category visit counts.  Kept as counts
        #: (not profiles) so partial extractors merge exactly; turned
        #: into :class:`InterestProfile` by :meth:`finalize_interests`.
        self._interest_counts: dict[str, Counter[str]] = defaultdict(Counter)
        for row in rows:
            self.ingest_row(row, self.blacklist.classify(row.domain))
        for det in notifications:
            self.ingest_notification(det)
        self.finalize_interests()

    @classmethod
    def incremental(
        cls,
        blacklist: DomainBlacklist,
        directory: PublisherDirectory,
        geoip: GeoIpResolver | None = None,
    ) -> "FeatureExtractor":
        """An empty extractor ready for :meth:`ingest_row` feeding."""
        return cls((), (), blacklist, directory, geoip)

    # -- incremental ingestion -----------------------------------------------

    def ingest_row(self, row: HttpRequest, group: str) -> None:
        """Fold one weblog row, pre-classified as ``group``, into the
        per-user aggregates (classification is the caller's job so it is
        paid exactly once per row on the single-pass path)."""
        agg = self.users[row.user_id]
        agg.n_requests += 1
        agg.total_bytes += row.bytes_transferred
        agg.total_duration_ms += row.duration_ms
        if is_sync_beacon(row):
            agg.n_syncs += 1
        elif is_web_beacon(row):
            agg.n_beacons += 1
        lookup = self.geoip.lookup(row.client_ip)
        if lookup.resolved:
            agg.cities.add(lookup.city)
        if group == GROUP_REST:
            agg.content_domains.add(row.domain)
            category = self.directory.category_of(row.domain)
            if category is not None:
                self._interest_counts[row.user_id][category] += 1
        ua = parse_user_agent(row.user_agent)
        if ua.os != "Other":
            agg.os = ua.os
        if ua.device_type != "unknown":
            agg.device_type = ua.device_type

    def ingest_notification(self, det: DetectedNotification) -> None:
        """Fold one detected win notification into advertiser/campaign
        aggregates."""
        advertiser = det.parsed.params.get("ad_domain", "")
        if advertiser:
            agg = self.advertisers[advertiser]
            agg.n_requests += 1
            agg.total_bytes += det.row.bytes_transferred
            agg.total_duration_ms += det.row.duration_ms
            agg.users.add(det.user_id)
        campaign = det.parsed.campaign_id
        if campaign:
            self.campaign_counts[campaign] += 1

    def finalize_interests(self) -> None:
        """Materialise interest profiles from the accumulated counts.

        Idempotent: safe to call again after further ingestion or
        merging (profiles are recomputed from the raw counts).
        """
        for user_id, counts in self._interest_counts.items():
            self.users[user_id].interests = InterestProfile.from_counts(
                dict(counts)
            )

    def merge_from(self, later: "FeatureExtractor") -> None:
        """Fold a *later* partial extractor into this one.

        ``later`` must cover rows that come after this extractor's rows
        in weblog order for any user both have seen (last-wins fields);
        call :meth:`finalize_interests` once merging is complete.
        """
        for user_id, agg in later.users.items():
            if user_id in self.users:
                self.users[user_id].merge_from(agg)
            else:
                self.users[user_id] = agg
        for advertiser, agg in later.advertisers.items():
            if advertiser in self.advertisers:
                self.advertisers[advertiser].merge_from(agg)
            else:
                self.advertisers[advertiser] = agg
        self.campaign_counts.update(later.campaign_counts)
        for user_id, counts in later._interest_counts.items():
            self._interest_counts[user_id].update(counts)

    # -- vectorisation -------------------------------------------------------

    def core_vector(self, det: DetectedNotification) -> dict[str, Hashable]:
        """The compact feature set S for one notification."""
        row = det.row
        ua = parse_user_agent(row.user_agent)
        lookup = self.geoip.lookup(row.client_ip)
        publisher = det.parsed.params.get("pub_name", "")
        iab = self.directory.category_of(publisher) if publisher else None
        return {
            "context": ua.context,
            "device_type": ua.device_type,
            "city": lookup.city or "unknown",
            "time_of_day": hour_of(row.timestamp) // 4,
            "day_of_week": day_of_week(row.timestamp),
            "slot_size": det.parsed.slot_size or "unknown",
            "publisher_iab": iab or "unknown",
            "adx": det.parsed.adx,
        }

    def full_vector(self, det: DetectedNotification) -> dict[str, Hashable]:
        """The extended feature vector F (core + user + ad + expansions)."""
        row = det.row
        ua = parse_user_agent(row.user_agent)
        user = self.users[row.user_id]
        advertiser = det.parsed.params.get("ad_domain", "")
        adv = self.advertisers.get(advertiser, AdvertiserAggregates())
        campaign = det.parsed.campaign_id or ""

        features = self.core_vector(det)
        features.update(
            {
                "dsp": det.parsed.dsp or "unknown",
                "os": ua.os,
                "month": month_of(row.timestamp),
                "hour": hour_of(row.timestamp),
                "is_weekend": int(is_weekend(row.timestamp)),
                "publisher": det.parsed.params.get("pub_name", "unknown"),
                "n_url_params": det.n_url_params,
                "campaign_popularity": self.campaign_counts.get(campaign, 0),
                # User group.
                "user_n_requests": user.n_requests,
                "user_total_bytes": user.total_bytes,
                "user_avg_bytes_per_req": user.avg_bytes_per_request,
                "user_total_duration_ms": user.total_duration_ms,
                "user_avg_duration_per_req": user.avg_duration_per_request,
                "user_n_syncs": user.n_syncs,
                "user_n_beacons": user.n_beacons,
                "user_n_publishers": len(user.content_domains),
                "user_n_locations": len(user.cities),
                "user_dominant_interest": user.interests.dominant or "none",
                # Advertiser group.
                "adv_n_requests": adv.n_requests,
                "adv_total_bytes": adv.total_bytes,
                "adv_avg_reqs_per_user": adv.avg_requests_per_user,
                "adv_avg_duration": adv.avg_duration,
            }
        )
        # Sparse expansions: per-category interest weights and indicator
        # features -- these are what inflate F to hundreds of dimensions.
        for code in DATASET_CATEGORIES:
            features[f"interest_{code}"] = user.interests.weight(code)
        for h in range(24):
            features[f"hour_{h:02d}"] = int(hour_of(row.timestamp) == h)
        for d in range(7):
            features[f"dow_{d}"] = int(day_of_week(row.timestamp) == d)
        return features

    def feature_names_full(self) -> list[str]:
        """Stable column order for the extended vector."""
        names = list(CORE_FEATURES)
        names += [
            "dsp", "os", "month", "hour", "is_weekend", "publisher",
            "n_url_params", "campaign_popularity",
            "user_n_requests", "user_total_bytes", "user_avg_bytes_per_req",
            "user_total_duration_ms", "user_avg_duration_per_req",
            "user_n_syncs", "user_n_beacons", "user_n_publishers",
            "user_n_locations", "user_dominant_interest",
            "adv_n_requests", "adv_total_bytes", "adv_avg_reqs_per_user",
            "adv_avg_duration",
        ]
        names += [f"interest_{code}" for code in DATASET_CATEGORIES]
        names += [f"hour_{h:02d}" for h in range(24)]
        names += [f"dow_{d}" for d in range(7)]
        return names
