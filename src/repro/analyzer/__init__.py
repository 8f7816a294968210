"""Weblog Ads Analyzer: the paper's observer-side measurement pipeline.

Classifies HTTP traffic with a Disconnect-style blacklist, detects RTB
win notifications by macro pattern matching, extracts charge prices
(cleartext and encrypted), reverse-geocodes client IPs, parses user
agents, infers user interests from browsing history, and assembles the
Table-4 feature vectors.
"""

from repro.analyzer.blacklist import (
    GROUP_ADVERTISING,
    GROUP_ANALYTICS,
    GROUP_REST,
    GROUP_SOCIAL,
    GROUP_THIRD_PARTY,
    DomainBlacklist,
    default_blacklist,
)
from repro.analyzer.detector import (
    DetectedNotification,
    classify_rows,
    count_url_params,
    detect_notifications,
    is_sync_beacon,
    is_web_beacon,
)
from repro.analyzer.features import (
    CORE_FEATURES,
    AdvertiserAggregates,
    FeatureExtractor,
    UserAggregates,
)
from repro.analyzer.geoip import GeoIpResolver, GeoLookup
from repro.analyzer.interests import (
    PublisherDirectory,
)
from repro.analyzer.parallel import analyze_parallel, merge_partials, shard_of
from repro.analyzer.pipeline import (
    AnalysisResult,
    PriceObservation,
    WeblogAnalyzer,
    scan_rows_single_pass,
)
from repro.analyzer.useragent import ParsedUserAgent, parse_user_agent

__all__ = [
    "DomainBlacklist",
    "default_blacklist",
    "GROUP_ADVERTISING",
    "GROUP_ANALYTICS",
    "GROUP_SOCIAL",
    "GROUP_THIRD_PARTY",
    "GROUP_REST",
    "DetectedNotification",
    "detect_notifications",
    "classify_rows",
    "count_url_params",
    "analyze_parallel",
    "merge_partials",
    "shard_of",
    "scan_rows_single_pass",
    "is_sync_beacon",
    "is_web_beacon",
    "FeatureExtractor",
    "UserAggregates",
    "AdvertiserAggregates",
    "CORE_FEATURES",
    "GeoIpResolver",
    "GeoLookup",
    "PublisherDirectory",
    "AnalysisResult",
    "PriceObservation",
    "WeblogAnalyzer",
    "ParsedUserAgent",
    "parse_user_agent",
]
