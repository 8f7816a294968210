"""RTB notification detection over a classified weblog.

Second-level filtering of the paper's analyzer (section 4.1): among the
rows the blacklist classified as *advertising*, find the win
notifications by pattern-matching the known charge-price macros, and
extract price (cleartext or encrypted token) plus auction metadata --
explicitly filtering out bid prices that co-exist in some nURLs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator
from urllib.parse import urlsplit

from repro.analyzer.blacklist import GROUP_ADVERTISING, DomainBlacklist
from repro.rtb.nurl import ParsedNotification, parse_nurl, split_query
from repro.trace.weblog import HttpRequest


def count_url_params(url: str) -> int:
    """Number of query parameters in a URL (a Table-4 ad feature)."""
    return len(split_query(urlsplit(url).query))


@dataclass(frozen=True)
class DetectedNotification:
    """One win notification found in the weblog."""

    row: HttpRequest
    parsed: ParsedNotification

    @property
    def timestamp(self) -> float:
        return self.row.timestamp

    @property
    def user_id(self) -> str:
        return self.row.user_id

    @property
    def n_url_params(self) -> int:
        """Number of query parameters (a Table-4 ad feature)."""
        return self.parsed.n_params


def detect_notifications(
    rows: Iterable[HttpRequest], blacklist: DomainBlacklist
) -> Iterator[DetectedNotification]:
    """Yield every win notification among advertising-classified rows."""
    for row in rows:
        if blacklist.classify(row.domain) != GROUP_ADVERTISING:
            continue
        parsed = parse_nurl(row.url)
        if parsed is None:
            continue
        yield DetectedNotification(row=row, parsed=parsed)


def classify_rows(
    rows: Iterable[HttpRequest], blacklist: DomainBlacklist
) -> Counter[str]:
    """Traffic-group histogram of the weblog (the 5-group first pass)."""
    counts: Counter[str] = Counter()
    for row in rows:
        counts[blacklist.classify(row.domain)] += 1
    return counts


def is_sync_beacon(row: HttpRequest) -> bool:
    """Detect cookie-sync pixels by their URL shape (observer-side)."""
    return "partner_uid=" in row.url or row.domain.startswith("sync.")


def is_web_beacon(row: HttpRequest) -> bool:
    """Detect analytics/web beacons by their URL shape (observer-side)."""
    return "/collect?" in row.url or "/beacon" in row.url
