"""Ad-slot size catalog.

Exchanges quote auctioned slots by pixel dimensions.  The paper's
Figures 12-14 study the slot sizes below.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class AdSlotSize:
    """A ``width x height`` ad-slot size in CSS pixels."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"non-positive slot dimensions {self.width}x{self.height}")

    @property
    def area(self) -> int:
        """Pixel area -- the paper sorts its slot figures by this."""
        return self.width * self.height

    @property
    def label(self) -> str:
        """Canonical ``WxH`` label, e.g. ``'300x250'``."""
        return f"{self.width}x{self.height}"

    @classmethod
    def parse(cls, label: str) -> "AdSlotSize":
        """Parse a ``WxH`` string (case-insensitive 'x')."""
        match = re.fullmatch(r"(\d+)\s*[xX]\s*(\d+)", label.strip())
        if match is None:
            raise ValueError(f"not a slot size label: {label!r}")
        return cls(width=int(match.group(1)), height=int(match.group(2)))

    def __str__(self) -> str:
        return self.label


#: The subset carried by the Turn-style exchange in Figures 13-14.
TURN_SIZES: tuple[str, ...] = (
    "320x50", "468x60", "728x90", "120x600", "300x250", "160x600", "300x600",
)

#: Smartphone formats offered in the probe campaigns (Table 5).
CAMPAIGN_PHONE_SIZES: tuple[str, ...] = ("320x50", "300x250", "320x480")

#: Tablet formats offered in the probe campaigns (Table 5).
CAMPAIGN_TABLET_SIZES: tuple[str, ...] = ("728x90", "300x250", "768x1024")


def sort_by_area(labels: list[str] | tuple[str, ...]) -> list[str]:
    """Sort slot labels by pixel area (the paper's figure ordering)."""
    return sorted(labels, key=lambda lbl: AdSlotSize.parse(lbl).area)
