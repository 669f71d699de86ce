"""Ratio-controlled profile rebuilding.

Every user profile is downsampled so that the fraction of misinformative
items equals a target ratio exactly, in integer arithmetic. The target is an
exact rational p/q; the largest profile satisfying it keeps m*p misinformative
and m*(q-p) neutral items with m = min(avail_mis // p, avail_neu // (q-p)).
Users for which no such m >= 1 exists are dropped. The special unconstrained
ratio passes every profile through untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import ConfigError, EmptyDatasetError
from .seeds import substream


@dataclass(frozen=True)
class RatioSpec:
    """Target misinformation ratio; value None means no filtering."""

    value: Optional[Fraction] = None

    @classmethod
    def parse(cls, text: str) -> "RatioSpec":
        token = text.strip().lower()
        if token in ("none", "unconstrained", ""):
            return cls(None)
        try:
            value = Fraction(token)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse ratio {text!r}: {exc}") from exc
        if not 0 < value < 1:
            raise ConfigError(f"ratio must lie strictly between 0 and 1, got {text!r}")
        return cls(value)

    @property
    def is_unconstrained(self) -> bool:
        return self.value is None

    def label(self) -> str:
        if self.value is None:
            return "none"
        return f"{self.value.numerator}/{self.value.denominator}"


@dataclass(frozen=True)
class ProfileCounts:
    """Target item counts for one rebuilt profile."""

    misinfo: int
    neutral: int

    @property
    def total(self) -> int:
        return self.misinfo + self.neutral


def resolve_profile_counts(
    misinfo_avail: int, neutral_avail: int, ratio: Fraction
) -> Optional[ProfileCounts]:
    """Largest (misinfo, neutral) pair with misinfo/(misinfo+neutral) == ratio
    exactly and both counts at least 1; None when unattainable."""
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must lie strictly in (0, 1), got {ratio}")
    if misinfo_avail < 0 or neutral_avail < 0:
        raise ValueError("availabilities must be non-negative")
    p, q = ratio.numerator, ratio.denominator
    m = min(misinfo_avail // p, neutral_avail // (q - p))
    if m == 0:
        return None
    return ProfileCounts(misinfo=m * p, neutral=m * (q - p))


def build_ratio_dataset(ds: Dataset, ratio: RatioSpec, seed: int) -> Dataset:
    """Rebuild every profile at the target ratio; drop unattainable users, drop
    items left with zero interactions, and re-index deterministically.

    Sampling is uniform without replacement within each label partition, from
    a substream keyed by (seed, user index): misinformative items first, then
    neutral ones.
    """
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    if ratio.is_unconstrained:
        return ds

    kept_users: list[int] = []
    kept_profiles: list[np.ndarray] = []
    for u in range(ds.n_users):
        items = ds.profile(u)
        mask = ds.item_misinfo[items]
        misinfo, neutral = items[mask], items[~mask]
        counts = resolve_profile_counts(len(misinfo), len(neutral), ratio.value)
        if counts is None:
            continue
        rng = substream(seed, u)
        kept_mis = rng.choice(misinfo, size=counts.misinfo, replace=False)
        kept_neu = rng.choice(neutral, size=counts.neutral, replace=False)
        kept_users.append(u)
        kept_profiles.append(np.sort(np.concatenate([kept_mis, kept_neu])))
    if not kept_users:
        raise EmptyDatasetError(f"ratio {ratio.label()} drops every user in the dataset")

    cols = np.concatenate(kept_profiles)
    kept_items = np.unique(cols)
    rows = np.repeat(np.arange(len(kept_users), dtype=np.int64), [len(p) for p in kept_profiles])
    return Dataset.from_indices(
        tuple(ds.user_ids[u] for u in kept_users),
        tuple(ds.item_ids[i] for i in kept_items),
        ds.item_misinfo[kept_items],
        rows,
        np.searchsorted(kept_items, cols).astype(np.int64),
    )
