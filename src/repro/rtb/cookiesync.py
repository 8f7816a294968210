"""Cookie synchronisation between exchanges/SSPs and DSPs.

Cookie syncing maps one party's user identifier into another party's id
space, which is how DSPs recognise the user an exchange is auctioning
(paper sections 2.1, 4.1, 4.3).  The number of cookie syncs observed for
a user is one of the paper's Table-4 user features, and sync events
leave detectable beacon requests in the weblog.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


def synced_uid(party: str, user_id: str) -> str:
    """Deterministic per-party pseudonym for a user."""
    return hashlib.sha1(f"{party}|{user_id}".encode()).hexdigest()[:16]


@dataclass
class CookieSyncRegistry:
    """Tracks which (user, party-pair) syncs have happened.

    A sync is established once per (user, source, destination) triple;
    repeated visits do not re-sync (matching real match-table behaviour,
    where sync pixels fire only when the mapping is missing or stale).
    """

    _table: dict[tuple[str, str, str], str] = field(default_factory=dict)
    _by_user_source: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)

    def sync(self, user_id: str, source: str, destination: str) -> tuple[str, bool]:
        """Record a sync attempt; returns (destination uid, was_new)."""
        key = (user_id, source, destination)
        if key in self._table:
            return self._table[key], False
        uid = synced_uid(destination, user_id)
        self._table[key] = uid
        self._by_user_source.setdefault((user_id, source), {})[destination] = uid
        return uid, True

    def lookup(self, user_id: str, source: str, destination: str) -> str | None:
        """Destination-side uid if the pair has synced this user."""
        return self._table.get((user_id, source, destination))

    def known_destinations(self, user_id: str, source: str) -> dict[str, str]:
        """All destination uids a source can attach for this user.

        This is the match table a real exchange consults when
        assembling the ``BuyerUID`` fields of a bid request; it is an
        O(1) lookup because it sits on the auction hot path.
        """
        return dict(self._by_user_source.get((user_id, source), {}))

    def beacon_url(self, user_id: str, source: str, destination: str) -> str:
        """The sync-pixel URL such an event leaves in the weblog."""
        uid = synced_uid(destination, user_id)
        return (
            f"https://sync.{source.lower()}.com/match?partner={destination}"
            f"&partner_uid={uid}"
        )
