"""Second-price (Vickrey) auction clearing.

RTB auctions "typically follow the second higher price model", so the
winner pays the second-highest submitted bid (paper section 2.1).  When
only one bid clears the floor, the charge price is the floor (or the
bid itself when no floor is set, the degenerate single-bidder case).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtb.openrtb import Bid


#: Smallest step a second-price winner pays over the runner-up, CPM.
MIN_INCREMENT_CPM = 0.01


class AuctionError(Exception):
    """Raised on malformed auction inputs."""


@dataclass(frozen=True)
class AuctionOutcome:
    """Result of clearing one auction."""

    winner: Bid
    charge_price_cpm: float
    n_bids: int
    second_price_cpm: float | None

    def __post_init__(self) -> None:
        if self.charge_price_cpm < 0:
            raise AuctionError(f"negative charge price {self.charge_price_cpm}")
        if self.charge_price_cpm > self.winner.price_cpm + 1e-9:
            raise AuctionError(
                f"charge price {self.charge_price_cpm} exceeds winning bid "
                f"{self.winner.price_cpm}"
            )


def run_first_price_auction(
    bids: list[Bid],
    floor_cpm: float = 0.0,
) -> AuctionOutcome | None:
    """Clear a first-price auction (the winner pays its own bid).

    The RTB industry moved from second- to first-price clearing after
    the paper's publication (2018-2019); this variant lets the
    reproduction study whether the price-transparency methodology
    survives the mechanism change (it does -- the methodology models
    *observed charges*, whatever produced them; see the first-price
    ablation benchmark).
    """
    if floor_cpm < 0:
        raise AuctionError(f"negative floor {floor_cpm}")
    eligible = [b for b in bids if b.price_cpm >= floor_cpm]
    if not eligible:
        return None
    ranked = sorted(eligible, key=lambda b: (-b.price_cpm, b.dsp, b.campaign_id))
    winner = ranked[0]
    return AuctionOutcome(
        winner=winner,
        charge_price_cpm=winner.price_cpm,
        n_bids=len(eligible),
        second_price_cpm=ranked[1].price_cpm if len(ranked) >= 2 else None,
    )


def run_second_price_auction(
    bids: list[Bid],
    floor_cpm: float = 0.0,
) -> AuctionOutcome | None:
    """Clear a second-price auction.

    Bids below the floor are discarded.  The winner is the highest
    bidder (deterministic tie-break on (price, dsp, campaign_id) so the
    simulation is reproducible); the charge price is
    ``max(second_highest_bid + MIN_INCREMENT_CPM, floor)`` capped at the
    winning bid, or the floor/bid when the winner is alone.

    Returns ``None`` when no bid clears the floor (unsold slot, which an
    SSP would backfill -- see paper section 2.1 footnote on backfill).
    """
    if floor_cpm < 0:
        raise AuctionError(f"negative floor {floor_cpm}")
    eligible = [b for b in bids if b.price_cpm >= floor_cpm]
    if not eligible:
        return None

    ranked = sorted(
        eligible, key=lambda b: (-b.price_cpm, b.dsp, b.campaign_id)
    )
    winner = ranked[0]
    if len(ranked) >= 2:
        second = ranked[1].price_cpm
        charge = min(winner.price_cpm, max(second + MIN_INCREMENT_CPM, floor_cpm))
        second_price = second
    else:
        charge = floor_cpm if floor_cpm > 0 else winner.price_cpm
        second_price = None
    return AuctionOutcome(
        winner=winner,
        charge_price_cpm=charge,
        n_bids=len(eligible),
        second_price_cpm=second_price,
    )
