"""YourAdValue: the user-side tool (paper section 3.3).

The client sits on the user's device (the paper ships it as a Chrome
extension), watches the HTTP(S) traffic stream, detects RTB win
notifications, tallies cleartext charge prices directly and estimates
encrypted ones with the decision-tree model downloaded from the PME --
all locally, so no browsing data leaves the device.  Users may opt in
to contribute *anonymised* price records back to the platform.

This implementation consumes :class:`repro.trace.weblog.HttpRequest`
rows (the same objects a packet-level monitor would produce) one at a
time, maintaining a running ledger exactly like the extension's local
storage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable

from repro.analyzer.blacklist import DomainBlacklist, default_blacklist
from repro.analyzer.geoip import GeoIpResolver
from repro.analyzer.interests import PublisherDirectory
from repro.analyzer.useragent import parse_user_agent
from repro.core.estimator import Estimator
from repro.rtb.nurl import parse_nurl
from repro.trace.weblog import HttpRequest
from repro.util.timeutil import day_of_week, hour_of


@dataclass(frozen=True)
class LedgerEntry:
    """One detected charge price in the client's local storage."""

    timestamp: float
    adx: str
    dsp: str
    encrypted: bool
    amount_cpm: float          # cleartext price, or model estimate
    estimated: bool
    slot_size: str | None
    publisher_iab: str


@dataclass
class ToolbarSummary:
    """What the extension's toolbar popup shows (paper Figure 20)."""

    cleartext_cpm: float
    encrypted_estimated_cpm: float
    n_cleartext: int
    n_encrypted: int

    @property
    def total_cpm(self) -> float:
        return self.cleartext_cpm + self.encrypted_estimated_cpm

    @property
    def total_dollars(self) -> float:
        return self.total_cpm / 1000.0

    def headline(self) -> str:
        """The user-facing one-liner."""
        return (
            f"Advertisers paid ${self.total_dollars:.4f} "
            f"({self.total_cpm:.2f} CPM) to reach you across "
            f"{self.n_cleartext + self.n_encrypted} ads "
            f"({self.n_encrypted} with encrypted prices, estimated)."
        )


class YourAdValue:
    """The client-side monitor.

    ``model_package`` is the JSON dict published by the PME
    (:meth:`repro.core.pme.PriceModelingEngine.package_model`).
    """

    def __init__(
        self,
        model_package: dict,
        directory: PublisherDirectory,
        blacklist: DomainBlacklist | None = None,
        geoip: GeoIpResolver | None = None,
    ):
        #: The downloaded price model.  It carries the PME's drift
        #: coefficient and applies it to every encrypted estimate
        #: (ledger entries included), so the toolbar shows campaign-time
        #: prices.
        self.estimator = Estimator.from_package(model_package)
        self.model_version = int(model_package.get("version", 1))
        self.directory = directory
        self.blacklist = blacklist or default_blacklist()
        self.geoip = geoip or GeoIpResolver()
        self.ledger: list[LedgerEntry] = []

    # -- traffic monitoring --------------------------------------------------

    def observe(self, row: HttpRequest) -> LedgerEntry | None:
        """Inspect one HTTP request; tally it when it is a win nURL."""
        if self.blacklist.classify(row.domain) != "advertising":
            return None
        parsed = parse_nurl(row.url)
        if parsed is None:
            return None

        publisher = parsed.params.get("pub_name", "")
        iab = self.directory.category_of(publisher) if publisher else None
        if parsed.is_encrypted:
            features = self._features(row, parsed, iab)
            amount = self.estimator.estimate_one(features)
            entry = LedgerEntry(
                timestamp=row.timestamp,
                adx=parsed.adx,
                dsp=parsed.dsp or "unknown",
                encrypted=True,
                amount_cpm=amount,
                estimated=True,
                slot_size=parsed.slot_size,
                publisher_iab=iab or "unknown",
            )
        else:
            entry = LedgerEntry(
                timestamp=row.timestamp,
                adx=parsed.adx,
                dsp=parsed.dsp or "unknown",
                encrypted=False,
                amount_cpm=float(parsed.cleartext_price_cpm),
                estimated=False,
                slot_size=parsed.slot_size,
                publisher_iab=iab or "unknown",
            )
        self.ledger.append(entry)
        return entry

    def observe_many(self, rows: Iterable[HttpRequest]) -> int:
        """Process a batch of rows; returns how many prices were found."""
        found = 0
        for row in rows:
            if self.observe(row) is not None:
                found += 1
        return found

    def _features(self, row: HttpRequest, parsed, iab: str | None) -> dict[str, Hashable]:
        ua = parse_user_agent(row.user_agent)
        lookup = self.geoip.lookup(row.client_ip)
        return {
            "context": ua.context,
            "device_type": ua.device_type,
            "city": lookup.city or "unknown",
            "time_of_day": hour_of(row.timestamp) // 4,
            "day_of_week": day_of_week(row.timestamp),
            "slot_size": parsed.slot_size or "unknown",
            "publisher_iab": iab or "unknown",
            "adx": parsed.adx,
            "os": ua.os,
            "publisher": parsed.params.get("pub_name", "unknown"),
        }

    # -- reporting -----------------------------------------------------------

    def summary(self) -> ToolbarSummary:
        """Cumulative totals (the extension's main display)."""
        clr = [e for e in self.ledger if not e.encrypted]
        enc = [e for e in self.ledger if e.encrypted]
        return ToolbarSummary(
            cleartext_cpm=sum(e.amount_cpm for e in clr),
            encrypted_estimated_cpm=sum(e.amount_cpm for e in enc),
            n_cleartext=len(clr),
            n_encrypted=len(enc),
        )

    # -- PME interaction -------------------------------------------------------

    def check_for_update(self, package: dict) -> bool:
        """Install a newer model package; returns True when updated."""
        version = int(package.get("version", 1))
        if version <= self.model_version:
            return False
        self.estimator = Estimator.from_package(package)
        self.model_version = version
        return True

    def contribution_records(self) -> list[dict]:
        """Anonymised cleartext price records for crowd contribution.

        Only auction-level metadata and the price are shared -- no user
        identifier, raw URL, IP or timestamp finer than the hour, which
        is the privacy contract of section 3.2's anonymous channel.
        """
        records = []
        for entry in self.ledger:
            if entry.encrypted:
                continue
            records.append(
                {
                    "adx": entry.adx,
                    "dsp": entry.dsp,
                    "slot_size": entry.slot_size or "unknown",
                    "publisher_iab": entry.publisher_iab,
                    "hour_of_day": hour_of(entry.timestamp),
                    "day_of_week": day_of_week(entry.timestamp),
                    "price_cpm": entry.amount_cpm,
                }
            )
        return records
