"""Geography of the simulated population: Spanish cities and IP blocks.

The paper's users all live in one country (Spain -- the probe campaigns
target Madrid/Barcelona/Valencia/Seville) and Figure 5 reports price
distributions for ten cities sorted by size.  We model exactly those
cities, with populations from the 2015 census rounded to the thousand,
and give each city a synthetic IPv4 block so reverse IP geocoding (the
paper's MaxMind step) can be reproduced with a bundled registry.

Figure 5's finding -- larger cities have *lower median* charge prices
but *wider spread* -- is encoded as per-city price multipliers and
volatility factors consumed by :mod:`repro.trace.pricing`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class City:
    """One city of the simulated country."""

    name: str
    population: int
    #: Multiplier on the median charge price (large cities < 1).
    price_multiplier: float
    #: Extra lognormal sigma for price volatility (large cities higher).
    price_volatility: float
    #: Second octet of the city's synthetic ``85.X.0.0/16`` IP block.
    ip_block: int

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError(f"bad population for {self.name}")
        if not 0 <= self.ip_block <= 255:
            raise ValueError(f"bad ip block {self.ip_block}")


#: The paper's Figure-5 cities, sorted by size (descending).  Price
#: multipliers fall and volatility rises with city size, matching the
#: figure's shape; small towns get tighter, slightly higher medians.
CITIES: tuple[City, ...] = (
    City("Madrid", 3_142_000, price_multiplier=0.88, price_volatility=0.025, ip_block=10),
    City("Barcelona", 1_605_000, price_multiplier=0.90, price_volatility=0.045, ip_block=11),
    City("Valencia", 786_000, price_multiplier=0.94, price_volatility=0.022, ip_block=13),
    City("Seville", 693_000, price_multiplier=0.96, price_volatility=0.0255, ip_block=12),
    City("Zaragoza", 664_000, price_multiplier=0.97, price_volatility=0.025, ip_block=15),
    City("Malaga", 569_000, price_multiplier=0.98, price_volatility=0.025, ip_block=14),
    City("Dos Hermanas", 131_000, price_multiplier=1.05, price_volatility=0.022, ip_block=18),
    City("Villaviciosa de Odon", 27_000, price_multiplier=1.10, price_volatility=0.025, ip_block=16),
    City("Priego de Cordoba", 23_000, price_multiplier=1.12, price_volatility=0.025, ip_block=17),
    City("Torello", 14_000, price_multiplier=1.15, price_volatility=0.022, ip_block=19),
)

#: Figure 5's x-axis order (by city size, descending).
CITIES_BY_SIZE: tuple[str, ...] = tuple(
    c.name for c in sorted(CITIES, key=lambda c: -c.population)
)

#: The four big cities the probe campaigns target (Table 5).
CAMPAIGN_CITIES: tuple[str, ...] = ("Madrid", "Barcelona", "Valencia", "Seville")

_BY_NAME: dict[str, City] = {c.name: c for c in CITIES}


def city_by_name(name: str) -> City:
    """Look a city up by name; raises KeyError when unknown."""
    return _BY_NAME[name]


def population_weights() -> np.ndarray:
    """Normalised population weights in CITIES order (user sampling)."""
    pops = np.array([c.population for c in CITIES], dtype=float)
    return pops / pops.sum()


def assign_ip(city: City, rng: np.random.Generator) -> str:
    """A synthetic IPv4 address inside the city's /16 block."""
    return f"85.{city.ip_block}.{rng.integers(0, 256)}.{rng.integers(1, 255)}"

