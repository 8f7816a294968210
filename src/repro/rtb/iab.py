"""IAB content taxonomy (tier-1 categories).

Publishers, user-interest profiles and ad-campaign targeting all speak
IAB tier-1 category codes (``IAB1`` ... ``IAB26``), following the IAB
Tech Lab Content Taxonomy the paper references.  The paper's figures
call out IAB3 (Business) as the dearest category and IAB15 (Science)
as the cheapest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.util.rng import WeightedDraw

#: Tier-1 IAB categories, code -> human name.
IAB_CATEGORIES: dict[str, str] = {
    "IAB1": "Arts & Entertainment",
    "IAB2": "Automotive",
    "IAB3": "Business",
    "IAB4": "Careers",
    "IAB5": "Education",
    "IAB6": "Family & Parenting",
    "IAB7": "Health & Fitness",
    "IAB8": "Food & Drink",
    "IAB9": "Hobbies & Interests",
    "IAB10": "Home & Garden",
    "IAB11": "Law, Government & Politics",
    "IAB12": "News",
    "IAB13": "Personal Finance",
    "IAB14": "Society",
    "IAB15": "Science",
    "IAB16": "Pets",
    "IAB17": "Sports",
    "IAB18": "Style & Fashion",
    "IAB19": "Technology & Computing",
    "IAB20": "Travel",
    "IAB21": "Real Estate",
    "IAB22": "Shopping",
    "IAB23": "Religion & Spirituality",
    "IAB24": "Uncategorized",
    "IAB25": "Non-Standard Content",
    "IAB26": "Illegal Content",
}

#: The categories observed in the paper's dataset D (Table 3: 18 IABs) --
#: the trace generator draws publishers from these.
DATASET_CATEGORIES: tuple[str, ...] = (
    "IAB1", "IAB2", "IAB3", "IAB5", "IAB7", "IAB8", "IAB9", "IAB10",
    "IAB12", "IAB13", "IAB14", "IAB15", "IAB17", "IAB18", "IAB19",
    "IAB20", "IAB22", "IAB25",
)

#: Categories shown in the paper's Figure 11 (MoPub 2-month slice).
FIGURE11_CATEGORIES: tuple[str, ...] = (
    "IAB1", "IAB2", "IAB3", "IAB5", "IAB9", "IAB12", "IAB15", "IAB17",
    "IAB19", "IAB22",
)

#: Categories common to both probe campaigns in Figure 15.
FIGURE15_CATEGORIES: tuple[str, ...] = (
    "IAB1", "IAB12", "IAB13", "IAB17", "IAB19", "IAB20",
)


def is_valid_category(code: str) -> bool:
    """True when ``code`` is a known tier-1 IAB code."""
    return code in IAB_CATEGORIES


@dataclass(frozen=True)
class InterestProfile:
    """A user's weighted IAB interest profile.

    Weights are non-negative and normalised to sum to 1; the dominant
    category is what campaign targeting and price modelling key on.
    """

    weights: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        for code, weight in self.weights:
            if not is_valid_category(code):
                raise ValueError(f"unknown IAB code {code!r}")
            if weight < 0:
                raise ValueError(f"negative weight for {code}")

    @classmethod
    def from_counts(cls, counts: dict[str, float]) -> "InterestProfile":
        """Normalise raw per-category visit counts into a profile."""
        total = sum(counts.values())
        if total <= 0:
            return cls(weights=())
        items = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return cls(weights=tuple((code, c / total) for code, c in items))

    @property
    def dominant(self) -> str | None:
        """Highest-weight category, or None for an empty profile."""
        return self.weights[0][0] if self.weights else None

    @functools.cached_property
    def category_draw(self) -> tuple[list[str], WeightedDraw]:
        """The codes and a draw of one code by weight, built on first use.

        It lives and dies with the profile, so a short-lived profile (a
        probe audience member) frees its draw with it.
        """
        codes = [c for c, _ in self.weights]
        probs = np.array([w for _, w in self.weights])
        return codes, WeightedDraw(probs / probs.sum())

    def weight(self, code: str) -> float:
        """Weight of one category (0 when absent)."""
        for c, w in self.weights:
            if c == code:
                return w
        return 0.0

    def top(self, k: int) -> list[str]:
        """The ``k`` highest-weight category codes."""
        return [c for c, _ in self.weights[:k]]
