"""Weblog record structures: what the paper's proxy actually collected.

Dataset D is an HTTP weblog: one row per outgoing HTTP request, with
timestamp, user, URL, user agent, transfer size and duration (paper
section 4).  The analyzer consumes *only* these rows.  The simulator
additionally keeps ground-truth impression records (with the true
charge price even when the wire is encrypted) so the evaluation can
score estimates -- exactly the information asymmetry of the real study,
where ground truth came from the authors' own campaign reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtb.exchange import AuctionRecord, PairEncryptionPolicy
from repro.trace.population import UserProfile
from repro.trace.publishers import MarketUniverse
from repro.util.timeutil import Period

#: Weblog row kinds, mirroring the 5-group Disconnect classification the
#: analyzer applies (advertising / analytics / social / 3rd-party / rest)
#: plus the ad-internal distinctions the simulator knows.
KIND_CONTENT = "content"
KIND_NURL = "nurl"
KIND_SYNC = "sync"
KIND_ANALYTICS = "analytics"


@dataclass(frozen=True, slots=True)
class HttpRequest:
    """One HTTP request observed at the proxy."""

    timestamp: float
    user_id: str
    url: str
    domain: str
    user_agent: str
    kind: str
    bytes_transferred: int
    duration_ms: float
    client_ip: str = ""


@dataclass(frozen=True, slots=True)
class GroundTruthImpression:
    """Simulator-private truth for one delivered RTB impression."""

    user_id: str
    record: AuctionRecord

    @property
    def charge_price_cpm(self) -> float:
        return self.record.true_charge_price_cpm

    @property
    def is_encrypted(self) -> bool:
        return self.record.is_encrypted


@dataclass
class UserTrafficStats:
    """Per-user aggregate HTTP statistics (Table-4 user features)."""

    requests: int = 0
    bytes_transferred: int = 0
    duration_ms: float = 0.0

    def record(self, row: HttpRequest) -> None:
        self.requests += 1
        self.bytes_transferred += row.bytes_transferred
        self.duration_ms += row.duration_ms


@dataclass
class Weblog:
    """A full simulated dataset: HTTP rows + simulator-private truth."""

    period: Period
    users: list[UserProfile]
    universe: MarketUniverse
    policy: PairEncryptionPolicy
    rows: list[HttpRequest] = field(default_factory=list)
    impressions: list[GroundTruthImpression] = field(default_factory=list)
    stats: dict[str, UserTrafficStats] = field(default_factory=dict)

    def add_row(self, row: HttpRequest) -> None:
        self.rows.append(row)
        self.stats.setdefault(row.user_id, UserTrafficStats()).record(row)

    def add_impression(self, impression: GroundTruthImpression) -> None:
        self.impressions.append(impression)

    def finalize(self) -> None:
        """Sort rows by time (the proxy log is chronological)."""
        self.rows.sort(key=lambda r: r.timestamp)
        self.impressions.sort(key=lambda i: i.record.request.timestamp)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_impressions(self) -> int:
        return len(self.impressions)

    def summary(self) -> dict[str, float]:
        """Table-3 style dataset summary."""
        publishers = {
            i.record.request.publisher for i in self.impressions
        }
        iabs = {i.record.request.publisher_iab for i in self.impressions}
        encrypted = sum(1 for i in self.impressions if i.is_encrypted)
        return {
            "users": self.n_users,
            "http_requests": self.n_rows,
            "impressions": self.n_impressions,
            "rtb_publishers": len(publishers),
            "iab_categories": len(iabs),
            "encrypted_impressions": encrypted,
            "encrypted_fraction": (
                encrypted / self.n_impressions if self.n_impressions else 0.0
            ),
            "period_days": self.period.days,
        }
