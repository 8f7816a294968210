"""Domain classification blacklist (the analyzer's Disconnect stand-in).

The paper's Weblog Ads Analyzer first classifies every HTTP request
into five groups using the Disconnect adblocker's blacklist:
Advertising, Analytics, Social, 3rd-party content, Rest (section 4.1).
We bundle an equivalent registry: the advertising group is seeded from
the win-notification hosts of every known exchange plus common ad/sync
domain shapes, and the other groups from pattern rules.  Additional
lists can be merged in, mirroring the paper's note that multiple
blacklists (EasyList, Ghostery) can be integrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtb.nurl import FORMATS

GROUP_ADVERTISING = "advertising"
GROUP_ANALYTICS = "analytics"
GROUP_SOCIAL = "social"
GROUP_THIRD_PARTY = "third_party"
GROUP_REST = "rest"


@dataclass
class DomainBlacklist:
    """Suffix-matching domain classifier with five groups.

    ``exact`` entries match a domain or any of its subdomains (the usual
    blacklist semantics: ``doubleclick.net`` also covers
    ``ad.doubleclick.net``).
    """

    advertising: set[str] = field(default_factory=set)
    analytics: set[str] = field(default_factory=set)
    social: set[str] = field(default_factory=set)
    third_party: set[str] = field(default_factory=set)
    #: Per-instance memo of classify(); a weblog repeats the same few
    #: thousand domains millions of times, so the suffix walk is paid
    #: once per distinct domain.  Invalidated on mutation.
    _memo: dict = field(default_factory=dict, repr=False, compare=False)

    def _matches(self, domain: str, entries: set[str]) -> bool:
        if domain in entries:
            return True
        parts = domain.split(".")
        for i in range(1, len(parts) - 1):
            if ".".join(parts[i:]) in entries:
                return True
        return False

    def classify(self, domain: str) -> str:
        """Group label for one domain (``rest`` when unlisted)."""
        group = self._memo.get(domain)
        if group is not None:
            return group
        key = domain
        domain = domain.lower().strip()
        if self._matches(domain, self.advertising):
            group = GROUP_ADVERTISING
        elif self._matches(domain, self.analytics):
            group = GROUP_ANALYTICS
        elif self._matches(domain, self.social):
            group = GROUP_SOCIAL
        elif self._matches(domain, self.third_party):
            group = GROUP_THIRD_PARTY
        else:
            group = GROUP_REST
        self._memo[key] = group
        return group

    def __len__(self) -> int:
        return (
            len(self.advertising)
            + len(self.analytics)
            + len(self.social)
            + len(self.third_party)
        )


def default_blacklist() -> DomainBlacklist:
    """The bundled blacklist covering the simulated ecosystem."""
    advertising = {fmt.host for fmt in FORMATS.values()}
    # Exchange sync endpoints follow sync.<adx>.com in the simulator.
    advertising |= {f"sync.{name.lower()}.com" for name in FORMATS}
    advertising |= {
        "ads.example-ads.com",
        "adserver.example.net",
        "banners.adnetwork.example",
    }
    analytics = {
        "metrics.example-analytics.com",
        "stats.trackerhub.io",
        "google-analytics.com",
        "scorecardresearch.com",
    }
    social = {
        "facebook.com",
        "twitter.com",
        "plus.google.com",
        "linkedin.com",
    }
    third_party = {
        "cdn.jsdelivr.example",
        "fonts.example-static.com",
        "cdn.cloudcache.example",
    }
    return DomainBlacklist(
        advertising=advertising,
        analytics=analytics,
        social=social,
        third_party=third_party,
    )
