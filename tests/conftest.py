import numpy as np
import pytest

from misinfosim import (
    Dataset,
    RatioSpec,
    SynthConfig,
    build_ratio_dataset,
    generate_synthetic,
)
from misinfosim.recommenders import RecommendationList

# The large fixture mirrors the trend-test setting: strong popularity skew
# plus heavily over-weighted labeled items, then profiles rebuilt so every
# kept user carries an exact 1/5 labeled share.  The labeled-item fraction
# keeps the labeled catalog small (150 items): large enough that spread-out
# recommenders keep finding fresh labeled items over two feedback cycles,
# small enough that a winner-take-all recommender exhausts the labeled head.
LARGE_SYNTH = SynthConfig(
    user_count=2000,
    item_count=10_000,
    mean_profile_size=25.0,
    misinfo_item_fraction=0.015,
    popularity_exponent=1.0,
    misinfo_popularity_boost=50.0,
    seed=11,
)


def make_dataset(profiles, misinfo=(), extra_items=()):
    return Dataset.from_profiles(profiles, misinfo_items=misinfo, extra_items=extra_items)


def mask_dataset(mask, profiles) -> Dataset:
    """Items i000.. labeled by `mask`; user n (u000..) has seen the item indices profiles[n]."""
    items = [f"i{i:03d}" for i in range(len(mask))]
    return make_dataset(
        {f"u{u:03d}": [items[i] for i in profile] for u, profile in enumerate(profiles)},
        misinfo=[item for item, labeled in zip(items, mask) if labeled],
        extra_items=items,
    )


def rec_list(user, items, cutoff=10) -> RecommendationList:
    items = np.asarray(items, dtype=np.int64)
    return RecommendationList(user=user, items=items, scores=np.zeros(items.size), cutoff=cutoff)


def random_dataset(rng: np.random.Generator, n_users=10, n_items=15, p=0.3) -> Dataset:
    """Random Bernoulli interaction matrix with at least one interaction."""
    while True:
        dense = rng.random((n_users, n_items)) < p
        if dense.any():
            break
    rows, cols = np.nonzero(dense)
    users = tuple(f"u{u:03d}" for u in range(n_users))
    items = tuple(f"i{i:03d}" for i in range(n_items))
    misinfo = rng.random(n_items) < 0.3
    if not misinfo.any():
        misinfo[int(rng.integers(n_items))] = True
    return Dataset.from_indices(users, items, misinfo, rows, cols)


def block_dataset(groups=3, users_per=12, items_per=18) -> Dataset:
    """Disjoint user/item blocks: an exactly rank-`groups` binary matrix."""
    profiles = {}
    for g in range(groups):
        items = [f"g{g}i{j:02d}" for j in range(items_per)]
        for u in range(users_per):
            profiles[f"g{g}u{u:02d}"] = items
    return make_dataset(profiles, misinfo=["g0i00"])


@pytest.fixture
def tiny_ds() -> Dataset:
    # 4 users, 6 items; m0/m1 labeled, n0..n3 neutral
    return make_dataset(
        {
            "alice": ["m0", "n0", "n1"],
            "bob": ["m0", "m1", "n0"],
            "carol": ["n1", "n2"],
            "dave": ["m1", "n0", "n2", "n3"],
        },
        misinfo=["m0", "m1"],
    )


@pytest.fixture(scope="session")
def large_ds() -> Dataset:
    return generate_synthetic(LARGE_SYNTH)


@pytest.fixture(scope="session")
def large_ratio_ds(large_ds) -> Dataset:
    return build_ratio_dataset(large_ds, RatioSpec.parse("1/5"), seed=0)
