import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misinfosim import UndefinedMetricError, aggregate_report
from misinfosim.metrics import (
    misinformation_count,
    misinformation_gini,
    misinformation_ratio_difference,
)
from misinfosim.recommenders import RecommendationList

from conftest import make_dataset
from oracles import naive_mc, naive_mg, naive_mrd


def rec_list(user, items, cutoff=10):
    items = np.asarray(items, dtype=np.int64)
    return RecommendationList(user=user, items=items, scores=np.zeros(items.size), cutoff=cutoff)


MASK6 = np.array([True, False, True, False, False, False])  # items 0 and 2 labeled


# -- count share ----------------------------------------------------------------

def test_count_share_hand_cases():
    assert misinformation_count(np.array([0, 1, 2, 3, 4]), MASK6, 5) == pytest.approx(0.4)
    # shorter list than the cutoff: divisor stays the cutoff
    assert misinformation_count(np.array([0, 1]), MASK6, 10) == pytest.approx(0.1)
    assert misinformation_count(np.array([], dtype=int), MASK6, 5) == 0.0
    # only the top-N slots count
    assert misinformation_count(np.array([1, 3, 0]), MASK6, 2) == 0.0


def test_count_share_validates_cutoff():
    with pytest.raises(ValueError):
        misinformation_count(np.array([0]), MASK6, 0)


def test_count_share_label_flip_duality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        items = rng.choice(6, size=int(rng.integers(0, 7)), replace=False)
        cutoff = int(rng.integers(1, 8))
        mc = misinformation_count(items, MASK6, cutoff)
        flipped = misinformation_count(items, ~MASK6, cutoff)
        assert mc + flipped == pytest.approx(min(len(items), cutoff) / cutoff)


# -- ratio difference -------------------------------------------------------------

def test_ratio_difference_hand_cases():
    profile = np.array([0, 1, 2, 3])  # share 2/4
    recs = np.array([0, 2, 4, 5])     # share 2/4 at cutoff 4
    assert misinformation_ratio_difference(profile, recs, MASK6, 4) == pytest.approx(0.0)
    # recommendation share uses min(len, cutoff) as denominator
    assert misinformation_ratio_difference(profile, np.array([0]), MASK6, 10) == pytest.approx(0.5)
    # empty recommendations count as zero share
    assert misinformation_ratio_difference(profile, np.array([], dtype=int), MASK6, 5) == pytest.approx(-0.5)
    # empty profile: undefined
    assert misinformation_ratio_difference(np.array([], dtype=int), recs, MASK6, 5) is None


# -- concentration spread ----------------------------------------------------------

def test_gini_spread_hand_case_exact():
    # two labeled items hit twice each, four neutral recommendations pooled
    mask = np.array([True, True, False, False, False, False])
    lists = [np.array([0, 1, 2]), np.array([0, 1, 3]), np.array([4]), np.array([5])]
    assert misinformation_gini(lists, mask, 3) == 0.75


def test_gini_spread_extremes():
    mask = np.array([True, False, False])
    # all recommendation mass on the single labeled item: fully concentrated
    assert misinformation_gini([np.array([0]), np.array([0])], mask, 5) == pytest.approx(0.0)
    # even split between the labeled item and the pooled neutral slot
    mask2 = np.array([True, False])
    lists = [np.array([0, 1])]
    assert misinformation_gini(lists, mask2, 5) == pytest.approx(1.0)


def test_gini_spread_permutation_invariant():
    mask = np.array([True, True, False, False])
    lists = [np.array([0, 2]), np.array([1, 3]), np.array([0])]
    a = misinformation_gini(lists, mask, 5)
    b = misinformation_gini(list(reversed(lists)), mask, 5)
    assert a == pytest.approx(b, abs=1e-15)


def test_gini_spread_undefined_cases():
    with pytest.raises(UndefinedMetricError):
        misinformation_gini([np.array([0])], np.array([False, False]), 5)
    with pytest.raises(UndefinedMetricError):
        misinformation_gini([np.array([], dtype=int)], np.array([True, False]), 5)


# -- oracle equivalence -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_metrics_match_naive_oracles(data):
    n_items = data.draw(st.integers(min_value=2, max_value=20))
    mask = np.array(
        data.draw(
            st.lists(st.booleans(), min_size=n_items, max_size=n_items).filter(lambda bs: any(bs))
        )
    )
    cutoff = data.draw(st.integers(min_value=1, max_value=8))
    n_lists = data.draw(st.integers(min_value=1, max_value=6))
    lists = []
    for _ in range(n_lists):
        size = data.draw(st.integers(min_value=0, max_value=n_items))
        perm = data.draw(st.permutations(range(n_items)))
        lists.append(np.array(perm[:size], dtype=np.int64))
    profile = np.array(sorted(data.draw(st.sets(st.integers(0, n_items - 1)))), dtype=np.int64)

    for items in lists:
        assert misinformation_count(items, mask, cutoff) == pytest.approx(
            naive_mc(items, mask, cutoff), abs=1e-12
        )
        got = misinformation_ratio_difference(profile, items, mask, cutoff)
        want = naive_mrd(profile, items, mask, cutoff)
        if want is None:
            assert got is None
        else:
            assert got == pytest.approx(want, abs=1e-12)
    if any(len(items) for items in lists):
        assert misinformation_gini(lists, mask, cutoff) == pytest.approx(
            naive_mg(lists, mask, cutoff), abs=1e-12
        )


# -- aggregation ---------------------------------------------------------------------

def test_aggregate_report_means_and_exclusions():
    ds = make_dataset(
        {"a": ["m0", "n0"], "b": ["n0", "n1"], "c": ["m1"]},
        misinfo=["m0", "m1"],
        extra_items=["n2"],
    )
    mask = ds.item_misinfo
    m0, m1 = ds.item_index("m0"), ds.item_index("m1")
    n1, n2 = ds.item_index("n1"), ds.item_index("n2")
    lists = [
        rec_list(0, [m1, n1]),     # a: one labeled of two slots
        rec_list(1, [m0, m1]),     # b: both labeled
        rec_list(2, []),           # c: empty list still counts toward the mean
    ]
    report = aggregate_report(ds, lists, cutoff=2)
    assert report.per_user_mc.tolist() == pytest.approx([0.5, 1.0, 0.0])
    assert report.mc == pytest.approx(0.5)
    # every profile is non-empty here; c's empty rec list contributes -1.0
    assert report.per_user_mrd.tolist() == pytest.approx([0.0, 1.0, -1.0])
    assert report.mrd == pytest.approx(0.0)
    assert 0.0 <= report.mg <= 1.0
    assert report.cutoff == 2


def test_aggregate_report_requires_lists_and_defined_gini(tiny_ds):
    with pytest.raises(UndefinedMetricError):
        aggregate_report(tiny_ds, [], cutoff=5)
    with pytest.raises(UndefinedMetricError):
        aggregate_report(tiny_ds, [rec_list(0, [])], cutoff=5)


def test_aggregate_report_subset_of_users(tiny_ds):
    lists = [rec_list(1, [3, 4]), rec_list(2, [0])]
    report = aggregate_report(tiny_ds, lists, cutoff=2)
    assert report.per_user_mc.size == 2
