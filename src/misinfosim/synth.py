"""Synthetic dataset generator with controllable popularity skew and
misinformation placement.

Item sampling weight follows a rank-based power law (rank = dense item index
+ 1), optionally boosted for misinformative items so that the most popular
items in the system can be made misinformative on purpose. Each user draws
from an independent substream keyed by (seed, user index), so generation is
order-independent and a fixed seed fully determines the output.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .dataset import Dataset
from .errors import ConfigError
from .seeds import substream

# substream tags under the master seed
_LABEL_STREAM = 0
_USER_STREAM = 1


@dataclass(frozen=True)
class SynthConfig:
    user_count: int
    item_count: int
    mean_profile_size: float
    misinfo_item_fraction: float
    popularity_exponent: float = 1.0
    misinfo_popularity_boost: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.user_count <= 0:
            raise ConfigError(f"user_count must be positive, got {self.user_count}")
        if self.item_count <= 0:
            raise ConfigError(f"item_count must be positive, got {self.item_count}")
        if not 1 <= self.mean_profile_size <= self.item_count:
            raise ConfigError(
                f"mean_profile_size must be in [1, item_count], got {self.mean_profile_size}"
            )
        if not 0.0 <= self.misinfo_item_fraction <= 1.0:
            raise ConfigError(
                f"misinfo_item_fraction must be in [0, 1], got {self.misinfo_item_fraction}"
            )
        if self.popularity_exponent < 0:
            raise ConfigError("popularity_exponent must be >= 0")
        if self.misinfo_popularity_boost < 1:
            raise ConfigError("misinfo_popularity_boost must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _identifiers(prefix: str, count: int) -> tuple[str, ...]:
    # zero-padded so lexicographic order equals index order
    width = len(str(max(count - 1, 0)))
    return tuple(f"{prefix}{i:0{width}d}" for i in range(count))


def generate_synthetic(cfg: SynthConfig) -> Dataset:
    """Generate a dataset fully determined by cfg.seed."""
    cfg.validate()
    n_items = cfg.item_count

    label_rng = substream(cfg.seed, _LABEL_STREAM)
    n_misinfo = int(round(cfg.misinfo_item_fraction * n_items))
    misinfo_idx = np.sort(label_rng.choice(n_items, size=n_misinfo, replace=False))
    misinfo_mask = np.zeros(n_items, dtype=bool)
    misinfo_mask[misinfo_idx] = True

    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-cfg.popularity_exponent)
    weights[misinfo_mask] *= cfg.misinfo_popularity_boost
    probs = weights / weights.sum()

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for u in range(cfg.user_count):
        rng = substream(cfg.seed, _USER_STREAM, u)
        size = int(np.clip(rng.poisson(cfg.mean_profile_size), 1, n_items))
        items = rng.choice(n_items, size=size, replace=False, p=probs)
        rows.append(np.full(size, u, dtype=np.int64))
        cols.append(np.asarray(items, dtype=np.int64))

    return Dataset.from_indices(
        _identifiers("u", cfg.user_count),
        _identifiers("i", n_items),
        misinfo_mask,
        np.concatenate(rows),
        np.concatenate(cols),
    )


def provenance_text(cfg: SynthConfig) -> str:
    """INI-style record of the generating configuration."""
    lines = ["[synth]"]
    for key, value in asdict(cfg).items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
