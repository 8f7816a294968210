"""Reverse IP geocoding (the analyzer's MaxMind stand-in).

The paper maps each user IP to city level with the MaxMind GeoIP
database (section 4.2).  Our bundled registry serves the same role for
the simulator's synthetic address plan: every city owns an ``85.X/16``
block.  The resolver is deliberately independent of the trace
generator's internals -- it consumes a (network -> city) table exactly
like a GeoIP database does, so it can be re-pointed at other address
plans.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.trace.geography import CITIES


@dataclass(frozen=True)
class GeoLookup:
    """Result of one IP lookup."""

    ip: str
    city: str | None
    country: str | None

    @property
    def resolved(self) -> bool:
        return self.city is not None


class GeoIpResolver:
    """City-level reverse geocoder over /16 network prefixes."""

    def __init__(self, table: dict[str, tuple[str, str]] | None = None):
        """``table`` maps '85.X' prefixes to (city, country)."""
        if table is None:
            table = {f"85.{c.ip_block}": (c.name, "ES") for c in CITIES}
        self._table = dict(table)
        # Per-instance memo: a weblog repeats each client IP thousands
        # of times and lookups are pure over the fixed table, so the
        # octet parse + prefix match is paid once per distinct IP.
        self._memo: dict[str, GeoLookup] = {}

    def lookup(self, ip: str) -> GeoLookup:
        """Resolve an IPv4 string; unknown networks yield an unresolved
        result rather than raising (real GeoIP misses happen)."""
        cached = self._memo.get(ip)
        if cached is not None:
            return cached
        result = self._lookup_uncached(ip)
        self._memo[ip] = result
        return result

    def _lookup_uncached(self, ip: str) -> GeoLookup:
        parts = ip.split(".") if ip else []
        if len(parts) != 4:
            return GeoLookup(ip=ip, city=None, country=None)
        try:
            octets = [int(p) for p in parts]
        except ValueError:
            return GeoLookup(ip=ip, city=None, country=None)
        if not all(0 <= o <= 255 for o in octets):
            return GeoLookup(ip=ip, city=None, country=None)
        entry = self._table.get(f"{octets[0]}.{octets[1]}")
        if entry is None:
            return GeoLookup(ip=ip, city=None, country=None)
        city, country = entry
        return GeoLookup(ip=ip, city=city, country=country)
