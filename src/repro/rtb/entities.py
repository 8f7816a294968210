"""The RTB ecosystem's cast: publishers, advertisers, SSPs, DMPs.

Key-player definitions follow the paper's section 2.1.  The module also
records the mobile RTB market composition of the paper's Figure 3 (the
per-entity RTB shares of dataset D) which the trace generator uses to
allocate auction volume across exchanges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtb.adslots import AdSlotSize
from repro.rtb.iab import InterestProfile, is_valid_category

#: RTB share of auction volume per ad entity, from the paper's Figure 3
#: x-axis (MoPub 33.55%, Adnxs 10.74%, ...).  The figure anonymises all
#: but the top two entities; we assign the remaining shares to the other
#: exchanges the paper names, in descending order.
MARKET_SHARES: dict[str, float] = {
    "MoPub": 0.3355,
    "Adnxs": 0.1074,
    "DoubleClick": 0.0942,
    "OpenX": 0.0691,
    "Rubicon": 0.0646,
    "PulsePoint": 0.0445,
    "Turn": 0.0414,
    "MediaMath": 0.0387,
    "Smaato": 0.0354,
    "Inneractive": 0.0293,
    "Criteo": 0.0252,
    "AdColony": 0.0240,
    "Millennial": 0.0236,
    "Nexage": 0.0200,
    "Amobee": 0.0197,
    "StrikeAd": 0.0168,
    "Airpush": 0.0106,
}

#: Exchanges that (by the end of 2015) encrypt prices toward at least
#: some DSPs.  DoubleClick, Rubicon and OpenX are the paper's named
#: "major supporters" of encryption; PulsePoint is the fourth ADX the
#: authors probe in campaign A1.
ENCRYPTING_ADXS: tuple[str, ...] = ("DoubleClick", "Rubicon", "OpenX", "PulsePoint")


@dataclass(frozen=True)
class Publisher:
    """A website or app with auctioned ad inventory."""

    domain: str
    name: str
    iab_category: str
    is_app: bool
    slot_sizes: tuple[AdSlotSize, ...]
    ssp: str = ""
    popularity: float = 1.0     # relative visit weight in the trace

    def __post_init__(self) -> None:
        if not is_valid_category(self.iab_category):
            raise ValueError(f"unknown IAB category {self.iab_category!r}")
        if not self.slot_sizes:
            raise ValueError(f"publisher {self.domain} has no ad slots")
        if self.popularity <= 0:
            raise ValueError("popularity must be positive")

    @property
    def kind(self) -> str:
        """``'app'`` or ``'web'``."""
        return "app" if self.is_app else "web"


@dataclass(frozen=True)
class Advertiser:
    """A buyer of ad inventory."""

    name: str
    domain: str
    iab_category: str

    def __post_init__(self) -> None:
        if not is_valid_category(self.iab_category):
            raise ValueError(f"unknown IAB category {self.iab_category!r}")


@dataclass
class Dmp:
    """Data-management platform: the ecosystem's user-data warehouse.

    Aggregates the "run-time user profile" DSPs consult before bidding
    (paper section 2.1): interest profile, observed locations, device.
    Access requires a cookie sync between the querying party and the
    DMP, mirroring how real match tables gate profile lookups.
    """

    name: str = "DataHub"
    _profiles: dict[str, dict] = field(default_factory=dict)

    def ingest(
        self,
        user_id: str,
        interests: InterestProfile | None = None,
        city: str | None = None,
        device_os: str | None = None,
    ) -> None:
        """Merge freshly observed attributes into the user's profile."""
        profile = self._profiles.setdefault(
            user_id, {"interests": InterestProfile(()), "cities": [], "device_os": None}
        )
        if interests is not None:
            profile["interests"] = interests
        if city is not None and city not in profile["cities"]:
            profile["cities"].append(city)
        if device_os is not None:
            profile["device_os"] = device_os

    def query(self, user_id: str) -> dict | None:
        """The run-time profile for a user, or None when unknown."""
        profile = self._profiles.get(user_id)
        return dict(profile) if profile is not None else None

    def __len__(self) -> int:
        return len(self._profiles)
