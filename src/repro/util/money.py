"""CPM price arithmetic.

RTB charge prices are quoted in CPM (cost per mille: US dollars per 1000
impressions), following the paper's convention that all observed prices
are USD.  This module centralises the micro-dollar integer encoding
used on the wire by real exchanges (e.g. DoubleClick encodes prices in
micros of the account currency) and the CPM display formats.
"""

from __future__ import annotations

MICROS_PER_UNIT = 1_000_000


def cpm_to_micros(cpm: float) -> int:
    """Integer micro-dollar encoding of a CPM price (wire format).

    Real exchanges transmit prices as integer micros to avoid floating
    point on the wire; we round half-up to the nearest micro.
    """
    if cpm < 0:
        raise ValueError(f"negative CPM {cpm!r}")
    return int(round(cpm * MICROS_PER_UNIT))


def micros_to_cpm(micros: int) -> float:
    """Inverse of :func:`cpm_to_micros`."""
    if micros < 0:
        raise ValueError(f"negative micros {micros!r}")
    return micros / MICROS_PER_UNIT


def format_cpm(cpm: float) -> str:
    """Human-readable CPM string, e.g. ``'0.47 CPM'``."""
    return f"{cpm:.2f} CPM"


def format_usd(dollars: float) -> str:
    """Human-readable dollar string, e.g. ``'$6.85'``."""
    return f"${dollars:,.2f}"
