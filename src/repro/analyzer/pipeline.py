"""The end-to-end Weblog Ads Analyzer (paper section 4.1).

Chains the pieces: blacklist classification -> nURL detection -> price
and metadata extraction -> feature aggregation, producing a list of
:class:`PriceObservation` rows that every figure/table of the
evaluation consumes.  All derivations are observer-side: the analyzer
sees only HTTP rows (URL, UA, client IP, sizes), never the simulator's
ground truth.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable

from repro import obs

from repro.analyzer.blacklist import (
    GROUP_ADVERTISING,
    DomainBlacklist,
    default_blacklist,
)
from repro.analyzer.detector import DetectedNotification
from repro.analyzer.features import FeatureExtractor
from repro.analyzer.geoip import GeoIpResolver
from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.useragent import parse_user_agent
from repro.rtb.nurl import parse_nurl
from repro.trace.weblog import HttpRequest
from repro.util.timeutil import month_of, year_of


@dataclass(frozen=True)
class PriceObservation:
    """One RTB charge-price observation, fully observer-derived."""

    timestamp: float
    user_id: str
    adx: str
    dsp: str
    is_encrypted: bool
    price_cpm: float | None          # None when encrypted
    encrypted_token: str | None
    slot_size: str | None
    publisher: str
    publisher_iab: str
    city: str
    os: str
    device_type: str
    context: str                     # "app" | "web"
    campaign_id: str
    n_url_params: int

    @property
    def month(self) -> int:
        return month_of(self.timestamp)

    @property
    def year(self) -> int:
        return year_of(self.timestamp)


#: Valid string keys for :meth:`AnalysisResult.prices_by`: the paper's
#: observation attributes (feature-group fields) plus the derived
#: ``month`` / ``year`` properties.
_OBSERVATION_KEYS: frozenset[str] = frozenset(
    f.name for f in fields(PriceObservation)
) | {"month", "year"}


@dataclass
class AnalysisResult:
    """Everything one analyzer pass produces."""

    observations: list[PriceObservation]
    traffic_counts: Counter
    extractor: FeatureExtractor
    notifications: list[DetectedNotification] = field(default_factory=list)

    # -- basic selections ------------------------------------------------

    def cleartext(self) -> list[PriceObservation]:
        return [o for o in self.observations if not o.is_encrypted]

    def encrypted(self) -> list[PriceObservation]:
        return [o for o in self.observations if o.is_encrypted]

    def cleartext_prices(self) -> list[float]:
        return [o.price_cpm for o in self.cleartext() if o.price_cpm is not None]

    # -- figure-level aggregations ----------------------------------------

    def monthly_pair_encryption(self) -> dict[int, tuple[int, int]]:
        """Per month: (encrypted pairs, cleartext pairs) -- Figure 2.

        A pair is counted encrypted for a month when *any* of its
        notifications that month was encrypted (pairs switch once).
        """
        seen: dict[int, dict[tuple[str, str], bool]] = defaultdict(dict)
        for obs in self.observations:
            pair = (obs.adx, obs.dsp)
            month_pairs = seen[obs.month]
            month_pairs[pair] = month_pairs.get(pair, False) or obs.is_encrypted
        return {
            month: (
                sum(1 for enc in pairs.values() if enc),
                sum(1 for enc in pairs.values() if not enc),
            )
            for month, pairs in seen.items()
        }

    def entity_rtb_shares(self) -> dict[str, float]:
        """Per-ADX share of all RTB notifications -- Figure 3 x-axis."""
        counts = Counter(o.adx for o in self.observations)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {adx: n / total for adx, n in counts.most_common()}

    def entity_cleartext_shares(self) -> dict[str, float]:
        """Per-ADX share of cleartext notifications -- Figure 3 y-axis."""
        counts = Counter(o.adx for o in self.cleartext())
        total = sum(counts.values())
        if total == 0:
            return {}
        return {adx: n / total for adx, n in counts.most_common()}

    def prices_by(self, key: str | Callable[[PriceObservation], object]) -> dict:
        """Group cleartext prices by an observation attribute or callable.

        ``key`` is either a callable mapping a :class:`PriceObservation`
        to a group label, or the *name* of an observation attribute (a
        dataclass field, or the derived ``month`` / ``year``
        properties).  Invalid names used to fall through ``getattr`` and
        crash opaquely (or, with a typo'd callable check, silently
        produce an empty grouping); now they raise :class:`ValueError`
        listing the valid keys.
        """
        if callable(key):
            getter = key
        elif isinstance(key, str):
            if key not in _OBSERVATION_KEYS:
                raise ValueError(
                    f"prices_by key {key!r} is not a PriceObservation "
                    f"attribute; valid keys: {', '.join(sorted(_OBSERVATION_KEYS))}"
                )

            def getter(o: PriceObservation, _name: str = key):
                return getattr(o, _name)
        else:
            raise TypeError(
                "prices_by key must be a string attribute name or a "
                f"callable, got {type(key).__name__}"
            )
        groups: dict = defaultdict(list)
        for observation in self.cleartext():
            groups[getter(observation)].append(observation.price_cpm)
        return dict(groups)

    def monthly_os_counts(self) -> dict[int, Counter]:
        """Per month, notification counts per OS -- Figure 8."""
        out: dict[int, Counter] = defaultdict(Counter)
        for obs in self.observations:
            out[obs.month][obs.os] += 1
        return dict(out)

    def monthly_slot_counts(self) -> dict[int, Counter]:
        """Per month, notification counts per slot size -- Figure 12."""
        out: dict[int, Counter] = defaultdict(Counter)
        for obs in self.observations:
            if obs.slot_size:
                out[obs.month][obs.slot_size] += 1
        return dict(out)


def scan_rows_single_pass(
    indexed_rows: Iterable[tuple[int, HttpRequest]],
    blacklist: DomainBlacklist,
    extractor: FeatureExtractor,
) -> tuple[Counter, list[tuple[int, DetectedNotification]]]:
    """One classification per row, fanned out to every consumer.

    The shared single-pass core of both the sequential analyzer and the
    sharded parallel workers (:mod:`repro.analyzer.parallel`).  Each row
    is classified exactly once; the resulting group simultaneously
    feeds (a) the 5-group traffic histogram, (b) nURL win-notification
    detection, and (c) the feature extractor's per-user aggregates.

    ``indexed_rows`` carries each row's global weblog position so
    sharded runs can restore the sequential emission order; returns the
    traffic histogram and the indexed detections (the caller finalises
    the extractor once all of a shard's chunks are in).
    """
    traffic_counts: Counter = Counter()
    notifications: list[tuple[int, DetectedNotification]] = []
    for index, row in indexed_rows:
        group = blacklist.classify(row.domain)
        traffic_counts[group] += 1
        extractor.ingest_row(row, group)
        if group == GROUP_ADVERTISING:
            parsed = parse_nurl(row.url)
            if parsed is not None:
                det = DetectedNotification(row=row, parsed=parsed)
                extractor.ingest_notification(det)
                notifications.append((index, det))
    return traffic_counts, notifications


class WeblogAnalyzer:
    """The paper's analyzer: configure once, run over any weblog."""

    def __init__(
        self,
        directory: PublisherDirectory,
        blacklist: DomainBlacklist | None = None,
        geoip: GeoIpResolver | None = None,
    ):
        self.directory = directory
        self.blacklist = blacklist or default_blacklist()
        self.geoip = geoip or GeoIpResolver()

    def analyze(
        self,
        rows: Iterable[HttpRequest],
        *,
        workers: int | None = None,
        chunk_size: int | None = None,
    ) -> AnalysisResult:
        """Run the full pipeline over weblog rows.

        Single-pass: ``rows`` may be any iterable (including the
        :func:`repro.io.iter_weblog_csv` generator) and is consumed
        exactly once without being materialised; every domain is
        classified exactly once.  With ``workers > 1`` the work is
        sharded by ``user_id`` hash across processes (see
        :func:`repro.analyzer.parallel.analyze_parallel`) and the merged
        result is identical to the sequential one.
        """
        if workers is not None and workers > 1:
            from repro.analyzer.parallel import analyze_parallel

            return analyze_parallel(
                rows,
                self.directory,
                blacklist=self.blacklist,
                geoip=self.geoip,
                workers=workers,
                chunk_size=chunk_size or 50_000,
            )
        with obs.stage("analyzer.analyze", workers=1) as st:
            extractor = FeatureExtractor.incremental(
                self.blacklist, self.directory, self.geoip
            )
            with obs.span("analyzer.scan"):
                traffic_counts, indexed = scan_rows_single_pass(
                    enumerate(rows), self.blacklist, extractor
                )
            extractor.finalize_interests()
            with obs.span("analyzer.observations"):
                notifications = [det for _, det in indexed]
                observations = [
                    self._to_observation(det, extractor) for det in notifications
                ]
            st.set(
                rows=int(sum(traffic_counts.values())),
                observations=len(observations),
            )
        return AnalysisResult(
            observations=observations,
            traffic_counts=traffic_counts,
            extractor=extractor,
            notifications=notifications,
        )

    def _to_observation(
        self, det: DetectedNotification, extractor: FeatureExtractor
    ) -> PriceObservation:
        row = det.row
        ua = parse_user_agent(row.user_agent)
        lookup = self.geoip.lookup(row.client_ip)
        publisher = det.parsed.params.get("pub_name", "")
        iab = self.directory.category_of(publisher) if publisher else None
        return PriceObservation(
            timestamp=row.timestamp,
            user_id=row.user_id,
            adx=det.parsed.adx,
            dsp=det.parsed.dsp or "unknown",
            is_encrypted=det.parsed.is_encrypted,
            price_cpm=det.parsed.cleartext_price_cpm,
            encrypted_token=det.parsed.encrypted_token,
            slot_size=det.parsed.slot_size,
            publisher=publisher,
            publisher_iab=iab or "unknown",
            city=lookup.city or "unknown",
            os=ua.os,
            device_type=ua.device_type,
            context=ua.context,
            campaign_id=det.parsed.campaign_id or "",
            n_url_params=det.n_url_params,
        )
