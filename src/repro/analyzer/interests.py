"""The content directory behind user-interest inference.

The paper infers each user's interests by collecting the websites the
user visits and mapping them to content categories via Google AdWords,
then aggregating into weighted IAB profiles (section 4.3).  Our
``PublisherDirectory`` plays the AdWords role: a (domain -> IAB
category) lookup built from the publisher universe (a real deployment
would populate it from a categorisation service).  The feature
extractor (:mod:`repro.analyzer.features`) does the aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtb.iab import is_valid_category
from repro.trace.publishers import MarketUniverse


@dataclass
class PublisherDirectory:
    """Domain -> IAB category content directory."""

    _categories: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_universe(cls, universe: MarketUniverse) -> "PublisherDirectory":
        """Build the directory from a market universe's publishers."""
        directory = cls()
        for pub in universe.publishers:
            directory.register(pub.domain, pub.iab_category)
        return directory

    def register(self, domain: str, iab_category: str) -> None:
        if not is_valid_category(iab_category):
            raise ValueError(f"unknown IAB category {iab_category!r}")
        self._categories[domain.lower()] = iab_category

    def category_of(self, domain: str) -> str | None:
        """IAB category for a domain, or None when uncategorised."""
        return self._categories.get(domain.lower())

    def items(self) -> list[tuple[str, str]]:
        """All (domain, category) entries, sorted by domain."""
        return sorted(self._categories.items())

    def __len__(self) -> int:
        return len(self._categories)
