"""The publisher and advertiser universe of the simulated market.

Publishers (mobile websites and apps) are generated deterministically
from a seed: Zipf-distributed popularity, IAB categories drawn from the
18 categories observed in dataset D, and per-device ad-slot inventories
whose popularity drifts through 2015 exactly as the paper's Figure 12
shows (the 300x250 "MPU" overtakes the 320x50 banner around May).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.rtb.adslots import AdSlotSize
from repro.rtb.entities import Advertiser, Publisher
from repro.rtb.iab import DATASET_CATEGORIES
from repro.trace.pricing import months_since_2015
from repro.util.rng import WeightedDraw

#: Relative frequency of each IAB category among publishers (news and
#: entertainment dominate mobile browsing; science is a long-tail
#: category -- which also starves it of high-value auctions).
IAB_PUBLISHER_WEIGHTS: dict[str, float] = {
    "IAB1": 0.14, "IAB2": 0.05, "IAB3": 0.05, "IAB5": 0.04, "IAB7": 0.06,
    "IAB8": 0.05, "IAB9": 0.07, "IAB10": 0.04, "IAB12": 0.17, "IAB13": 0.04,
    "IAB14": 0.05, "IAB15": 0.02, "IAB17": 0.08, "IAB18": 0.04, "IAB19": 0.06,
    "IAB20": 0.04, "IAB22": 0.05, "IAB25": 0.05,
}

#: Smartphone slot base weights at January 2015 and monthly linear drift
#: (per month), calibrated so 300x250 overtakes 320x50 around May 2015
#: (Figure 12) and MPU+leaderboard accumulate most revenue (Figure 14).
_PHONE_SLOT_DRIFT: dict[str, tuple[float, float]] = {
    "320x50": (0.340, -0.022),
    "300x250": (0.205, +0.024),
    "300x50": (0.080, -0.004),
    "728x90": (0.090, +0.001),
    "468x60": (0.055, -0.002),
    "336x280": (0.040, +0.001),
    "280x250": (0.030, 0.0),
    "200x200": (0.025, 0.0),
    "316x150": (0.020, 0.0),
    "120x600": (0.022, 0.0),
    "160x600": (0.020, 0.0),
    "300x600": (0.018, +0.001),
    "320x480": (0.018, 0.0),
    "480x320": (0.012, 0.0),
    "400x300": (0.010, 0.0),
    "800x130": (0.008, 0.0),
    "350x600": (0.007, 0.0),
}

_TABLET_SLOT_WEIGHTS: dict[str, float] = {
    "728x90": 0.30,
    "300x250": 0.28,
    "468x60": 0.10,
    "160x600": 0.08,
    "300x600": 0.07,
    "768x1024": 0.06,
    "1024x768": 0.05,
    "336x280": 0.06,
}


def _slot_weights(device_type: str, months_since: int) -> tuple[list[str], np.ndarray]:
    """Slot labels and sampling weights ``months_since`` January 2015.

    Indexing by months elapsed lets the 2016 probe campaigns see the
    late-2015 mix continued.
    """
    if device_type == "tablet":
        labels = list(_TABLET_SLOT_WEIGHTS)
        weights = np.array([_TABLET_SLOT_WEIGHTS[lbl] for lbl in labels])
    else:
        labels = list(_PHONE_SLOT_DRIFT)
        weights = np.array(
            [max(0.001, base + drift * months_since)
             for base, drift in _PHONE_SLOT_DRIFT.values()]
        )
    return labels, weights / weights.sum()


@functools.lru_cache(maxsize=256)
def _slot_draw(device_type: str, months_since: int
               ) -> tuple[tuple[AdSlotSize, ...], WeightedDraw]:
    labels, weights = _slot_weights(device_type, months_since)
    return tuple(AdSlotSize.parse(lbl) for lbl in labels), WeightedDraw(weights)


def sample_slot_size(rng: np.random.Generator, ts: float,
                     device_type: str) -> AdSlotSize:
    """Draw the auctioned slot size for one impression."""
    sizes, draw = _slot_draw(device_type, months_since_2015(ts))
    return sizes[draw(rng)]


@dataclass(frozen=True)
class MarketUniverse:
    """The fixed cast of one simulation: publishers and advertisers."""

    web_publishers: tuple[Publisher, ...]
    app_publishers: tuple[Publisher, ...]
    advertisers: tuple[Advertiser, ...]

    @property
    def publishers(self) -> tuple[Publisher, ...]:
        return self.web_publishers + self.app_publishers


_WEB_WORDS = ("noticias", "diario", "portal", "revista", "blog", "guia", "foro",
              "tienda", "canal", "web")
_APP_WORDS = ("app", "go", "play", "now", "pro", "lite", "plus", "mobi")

#: Default universe sizes; the paper's D sees ~5.6k RTB publishers per
#: month, but a few hundred distinct publishers per category suffice to
#: exercise every code path at laptop scale.
DEFAULT_N_WEB = 420
DEFAULT_N_APP = 180
DEFAULT_N_ADVERTISERS = 80


def _zipf_popularities(n: int, exponent: float = 1.05) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    return ranks**-exponent


def build_universe(
    rng: np.random.Generator,
    n_web: int = DEFAULT_N_WEB,
    n_app: int = DEFAULT_N_APP,
    n_advertisers: int = DEFAULT_N_ADVERTISERS,
) -> MarketUniverse:
    """Deterministically generate the market's publishers/advertisers."""
    iab_codes = list(IAB_PUBLISHER_WEIGHTS)
    iab_weights = np.array([IAB_PUBLISHER_WEIGHTS[c] for c in iab_codes])
    draw_iab = WeightedDraw(iab_weights / iab_weights.sum())

    def make_publishers(count: int, is_app: bool) -> tuple[Publisher, ...]:
        pops = _zipf_popularities(count)
        pubs = []
        words = _APP_WORDS if is_app else _WEB_WORDS
        for i in range(count):
            iab = iab_codes[draw_iab(rng)]
            word = words[int(rng.integers(0, len(words)))]
            if is_app:
                domain = f"app{i:03d}.{word}.example"
                name = f"{word.title()}App{i:03d}"
            else:
                domain = f"{word}{i:03d}.example.es"
                name = f"{word.title()}{i:03d}"
            sizes = (AdSlotSize.parse("300x250"), AdSlotSize.parse("320x50"))
            pubs.append(
                Publisher(
                    domain=domain,
                    name=name,
                    iab_category=iab,
                    is_app=is_app,
                    slot_sizes=sizes,
                    ssp="MainSSP",
                    popularity=float(pops[i]),
                )
            )
        return tuple(pubs)

    categories = list(DATASET_CATEGORIES)
    advertisers = tuple(
        Advertiser(
            name=f"Brand{i:02d}",
            domain=f"brand{i:02d}.example.com",
            iab_category=categories[i % len(categories)],
        )
        for i in range(n_advertisers)
    )

    return MarketUniverse(
        web_publishers=make_publishers(n_web, is_app=False),
        app_publishers=make_publishers(n_app, is_app=True),
        advertisers=advertisers,
    )
