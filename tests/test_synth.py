import numpy as np
import pytest
from scipy import stats as sps

from misinfosim import ConfigError, SynthConfig, generate_synthetic
from misinfosim.synth import provenance_text


def cfg(**kw):
    base = dict(
        user_count=200,
        item_count=100,
        mean_profile_size=10.0,
        misinfo_item_fraction=0.1,
        popularity_exponent=1.0,
        misinfo_popularity_boost=1.0,
        seed=5,
    )
    base.update(kw)
    return SynthConfig(**base)


def test_reproducible_and_seed_sensitive():
    a = generate_synthetic(cfg())
    b = generate_synthetic(cfg())
    c = generate_synthetic(cfg(seed=6))
    assert a == b
    assert a != c


def test_shapes_labels_and_profile_bounds():
    ds = generate_synthetic(cfg())
    assert ds.n_users == 200
    assert ds.n_items == 100
    assert int(ds.item_misinfo.sum()) == 10  # round(0.1 * 100)
    sizes = np.diff(ds.matrix.indptr)
    assert sizes.min() >= 1
    assert sizes.max() <= ds.n_items
    # identifiers sort in index order
    assert list(ds.user_ids) == sorted(ds.user_ids)
    assert list(ds.item_ids) == sorted(ds.item_ids)


def test_item_sampling_uniform_when_exponent_zero():
    ds = generate_synthetic(cfg(user_count=400, popularity_exponent=0.0, misinfo_popularity_boost=1.0))
    counts = ds.item_interaction_counts()
    _, p_value = sps.chisquare(counts)
    assert p_value > 0.01


def test_popularity_skew_follows_exponent():
    ds = generate_synthetic(cfg(user_count=400, popularity_exponent=1.0))
    counts = ds.item_interaction_counts()
    # rank-1 items sit at low indices; the head must dominate the tail
    assert counts[:20].sum() > 2 * counts[-20:].sum()


def test_misinfo_boost_concentrates_popularity():
    ds = generate_synthetic(cfg(user_count=400, item_count=200, misinfo_item_fraction=0.1,
                                misinfo_popularity_boost=50.0))
    counts = ds.item_interaction_counts()
    top10 = np.argsort(-counts, kind="stable")[:10]
    assert ds.item_misinfo[top10].mean() >= 0.8


def test_boosted_share_matches_expected_mass():
    c = cfg(user_count=500, item_count=200, misinfo_item_fraction=0.1,
            popularity_exponent=0.0, misinfo_popularity_boost=9.0)
    ds = generate_synthetic(c)
    # uniform weights, 20 of 200 items boosted 9x: misinfo mass = 180/(180+180) = 1/2
    share = ds.matrix[:, ds.item_misinfo].sum() / ds.n_interactions
    n = ds.n_interactions
    se = (0.25 / n) ** 0.5  # binomial-ish bound, ignores without-replacement correction
    assert abs(share - 0.5) < 4 * se + 0.02


def test_validation_errors():
    with pytest.raises(ConfigError):
        cfg(user_count=0)
    with pytest.raises(ConfigError):
        cfg(item_count=0)
    with pytest.raises(ConfigError):
        cfg(mean_profile_size=0.0)
    with pytest.raises(ConfigError):
        cfg(misinfo_item_fraction=1.5)
    with pytest.raises(ConfigError):
        cfg(misinfo_popularity_boost=0.0)
    with pytest.raises(ConfigError):
        cfg(seed=-1)
    for field in ("popularity_exponent", "misinfo_popularity_boost"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"{field} must be finite"):
                cfg(**{field: value})


def test_provenance_text_lists_every_field():
    text = provenance_text(cfg())
    assert text.startswith("[synth]\n")
    for key in ("user_count", "item_count", "mean_profile_size", "misinfo_item_fraction",
                "popularity_exponent", "misinfo_popularity_boost", "seed"):
        assert key in text
