import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misinfosim import ConfigError, EmptyDatasetError, RatioSpec, build_ratio_dataset
from misinfosim.profiles import ProfileCounts, resolve_profile_counts

from conftest import make_dataset, random_dataset
from oracles import per_user_ratio_build


def oracle_counts(misinfo_avail: int, neutral_avail: int, ratio: Fraction):
    """Largest (mis, neu) with mis+neu maximal and mis/(mis+neu) == ratio."""
    best = None
    for mis in range(1, misinfo_avail + 1):
        for neu in range(1, neutral_avail + 1):
            if mis * ratio.denominator == (mis + neu) * ratio.numerator:
                if best is None or mis + neu > best[0] + best[1]:
                    best = (mis, neu)
    return best


# -- ratio parsing ------------------------------------------------------------

def test_ratio_parse_forms():
    assert RatioSpec.parse("none").value is None
    assert RatioSpec.parse("unconstrained").value is None
    assert RatioSpec.parse("").value is None
    assert RatioSpec.parse("1/5").value == Fraction(1, 5)
    assert RatioSpec.parse("0.2").value == Fraction(1, 5)
    assert RatioSpec.parse("2/10").value == Fraction(1, 5)
    assert RatioSpec.parse(" 4/5 ").value == Fraction(4, 5)


def test_ratio_parse_rejects_out_of_range():
    for bad in ("0", "1", "5/5", "7/5", "-1/5", "abc", "1/0"):
        with pytest.raises(ConfigError):
            RatioSpec.parse(bad)


def test_ratio_labels():
    assert RatioSpec.parse("none").label() == "none"
    assert RatioSpec.parse("0.5").label() == "1/2"
    assert RatioSpec.parse("4/5").label() == "4/5"


# -- count resolution ---------------------------------------------------------

def test_resolve_hand_cases():
    assert resolve_profile_counts(5, 20, Fraction(1, 5)) == ProfileCounts(5, 20)
    assert resolve_profile_counts(5, 20, Fraction(1, 5)).total == 25
    assert resolve_profile_counts(2, 20, Fraction(1, 2)) == ProfileCounts(2, 2)
    assert resolve_profile_counts(1, 10, Fraction(4, 5)) is None
    assert resolve_profile_counts(0, 10, Fraction(1, 5)) is None
    assert resolve_profile_counts(10, 0, Fraction(1, 5)) is None
    assert resolve_profile_counts(7, 3, Fraction(2, 7)) is None  # needs 5 neutral per unit
    assert resolve_profile_counts(7, 5, Fraction(2, 7)) == ProfileCounts(2, 5)


def test_resolve_rejects_degenerate_ratio():
    with pytest.raises(ValueError):
        resolve_profile_counts(5, 5, Fraction(0, 1))
    with pytest.raises(ValueError):
        resolve_profile_counts(5, 5, Fraction(1, 1))


@settings(max_examples=300, deadline=None)
@given(
    mis=st.integers(min_value=0, max_value=30),
    neu=st.integers(min_value=0, max_value=30),
    ratio=st.sampled_from([Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(2, 7), Fraction(3, 10)]),
)
def test_resolve_matches_exhaustive_oracle(mis, neu, ratio):
    got = resolve_profile_counts(mis, neu, ratio)
    want = oracle_counts(mis, neu, ratio)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.misinfo, got.neutral) == want
        assert Fraction(got.misinfo, got.total) == ratio


# -- per-user rebuild ---------------------------------------------------------

@pytest.fixture
def mixed_ds():
    return make_dataset(
        {
            "u_rich": [f"m{k}" for k in range(4)] + [f"n{k}" for k in range(8)],
            "u_poor": ["m0", "n0"],
            "u_none": ["n0", "n1", "n2"],
        },
        misinfo=[f"m{k}" for k in range(4)],
    )


def _profile_ids(ds, uid):
    return {ds.item_ids[i] for i in ds.profile(ds.user_index(uid))}


def test_generate_profile_unconstrained_keeps_everything(mixed_ds):
    rebuilt = build_ratio_dataset(mixed_ds, RatioSpec.parse("none"), seed=3)
    for uid in mixed_ds.user_ids:
        assert _profile_ids(rebuilt, uid) == _profile_ids(mixed_ds, uid)


def test_generate_profile_exact_ratio_and_subset(mixed_ds):
    rebuilt = build_ratio_dataset(mixed_ds, RatioSpec.parse("1/5"), seed=3)
    labeled = rebuilt.item_misinfo[rebuilt.profile(rebuilt.user_index("u_rich"))]
    # maximal exact rebuild: 2 labeled + 8 neutral from (4, 8) at ratio 1/5
    assert (int(labeled.sum()), int((~labeled).sum())) == (2, 8)
    assert _profile_ids(rebuilt, "u_rich") <= _profile_ids(mixed_ds, "u_rich")


def test_generate_profile_unattainable_returns_none(mixed_ds):
    rebuilt = build_ratio_dataset(mixed_ds, RatioSpec.parse("1/5"), seed=3)
    assert "u_none" not in rebuilt.user_ids  # no labeled items at all


def test_generate_profile_deterministic_per_seed(mixed_ds):
    ratio = RatioSpec.parse("1/2")
    a = build_ratio_dataset(mixed_ds, ratio, seed=9)
    b = build_ratio_dataset(mixed_ds, ratio, seed=9)
    c = build_ratio_dataset(mixed_ds, ratio, seed=10)
    assert _profile_ids(a, "u_rich") == _profile_ids(b, "u_rich")
    # another seed may keep other items, but the same users with the same sizes
    assert c.user_ids == a.user_ids
    assert np.diff(c.matrix.indptr).tolist() == np.diff(a.matrix.indptr).tolist()


@pytest.mark.parametrize("ratio", ["1/5", "1/2", "4/5", "2/7"])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_build_ratio_dataset_matches_per_user_oracle(ratio, seed):
    rng = np.random.default_rng(zlib.crc32(f"{ratio}/{seed}".encode()))
    # per-user densities from empty to dense profiles
    ds = random_dataset(rng, n_users=50, n_items=40, p=rng.uniform(0.0, 0.7, size=(50, 1)))
    spec = RatioSpec.parse(ratio)
    want = per_user_ratio_build(ds, spec, seed)
    # some users keep a rebuilt profile and some cannot reach the ratio
    assert 0 < want.n_users < ds.n_users
    got = build_ratio_dataset(ds, spec, seed)
    assert got == want  # Dataset equality covers ids, labels and every profile


# -- whole-dataset rebuild ----------------------------------------------------

def test_build_ratio_dataset_unconstrained_is_identity(mixed_ds):
    assert build_ratio_dataset(mixed_ds, RatioSpec.parse("none"), seed=0) is mixed_ds


def test_build_ratio_dataset_drops_unattainable_users():
    ds = make_dataset(
        {
            "a": ["m0", "m1", "m2", "m3", "n0"],  # 4/5 attainable with m=1
            "b": ["m0", "m1", "m2", "n0"],        # needs 4 labeled for one unit
            "c": ["n0", "n1", "n2", "n3", "n4"],  # no labeled items
        },
        misinfo=["m0", "m1", "m2", "m3"],
    )
    rebuilt = build_ratio_dataset(ds, RatioSpec.parse("4/5"), seed=1)
    assert rebuilt.user_ids == ("a",)
    prof_items = [rebuilt.item_ids[i] for i in rebuilt.profile(0)]
    assert prof_items == ["m0", "m1", "m2", "m3", "n0"]
    assert rebuilt.item_misinfo.tolist() == [True, True, True, True, False]


def test_build_ratio_dataset_exact_share_everywhere(large_ratio_ds):
    mask = large_ratio_ds.item_misinfo
    for u in range(large_ratio_ds.n_users):
        prof = large_ratio_ds.profile(u)
        assert prof.size > 0
        assert Fraction(int(mask[prof].sum()), int(prof.size)) == Fraction(1, 5)


def test_build_ratio_dataset_profiles_are_subsets(mixed_ds):
    rebuilt = build_ratio_dataset(mixed_ds, RatioSpec.parse("1/2"), seed=4)
    for uid in rebuilt.user_ids:
        old = {mixed_ds.item_ids[i] for i in mixed_ds.profile(mixed_ds.user_index(uid))}
        new = {rebuilt.item_ids[i] for i in rebuilt.profile(rebuilt.user_index(uid))}
        assert new <= old


def test_build_ratio_dataset_reindexes_items(mixed_ds):
    rebuilt = build_ratio_dataset(mixed_ds, RatioSpec.parse("1/2"), seed=4)
    # every remaining item appears in at least one rebuilt profile
    assert (rebuilt.item_interaction_counts() > 0).all()
    assert list(rebuilt.item_ids) == sorted(rebuilt.item_ids)


def test_build_ratio_dataset_deterministic(mixed_ds):
    a = build_ratio_dataset(mixed_ds, RatioSpec.parse("1/2"), seed=4)
    b = build_ratio_dataset(mixed_ds, RatioSpec.parse("1/2"), seed=4)
    assert a == b


def test_build_ratio_dataset_raises_when_everyone_drops():
    ds = make_dataset({"a": ["n0", "n1"], "b": ["n2"]}, misinfo=["m_ghost"])
    with pytest.raises(EmptyDatasetError):
        build_ratio_dataset(ds, RatioSpec.parse("1/2"), seed=0)
