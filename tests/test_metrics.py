import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misinfosim import UndefinedMetricError, aggregate_report

from conftest import make_dataset, mask_dataset, random_dataset, rec_list
from oracles import naive_mc, naive_mg, naive_mrd, per_list_report


def report(mask, lists, cutoff, profile=(5,)):
    """aggregate_report over item lists, list n for user n; every user has seen `profile`."""
    ds = mask_dataset(mask, [profile] * len(lists))
    return aggregate_report(ds, [rec_list(u, items) for u, items in enumerate(lists)], cutoff)


MASK6 = np.array([True, False, True, False, False, False])  # items 0 and 2 labeled


# -- count share ----------------------------------------------------------------

def test_count_share_hand_cases():
    # the empty list scores 0; the divisor stays the cutoff
    assert report(MASK6, [[0, 1, 2, 3, 4], []], 5).per_user_mc.tolist() == pytest.approx([0.4, 0.0])
    # shorter list than the cutoff: divisor stays the cutoff
    assert report(MASK6, [[0, 1]], 10).per_user_mc.tolist() == pytest.approx([0.1])
    # only the top-N slots count
    assert report(MASK6, [[1, 3, 0]], 2).per_user_mc.tolist() == [0.0]


def test_count_share_validates_cutoff():
    with pytest.raises(ValueError):
        report(MASK6, [[0]], 0)


def test_count_share_label_flip_duality():
    rng = np.random.default_rng(2)
    for _ in range(50):
        items = rng.choice(6, size=int(rng.integers(0, 7)), replace=False)
        cutoff = int(rng.integers(1, 8))
        lists = [items, [0]]  # the second list keeps the concentration defined
        mc = report(MASK6, lists, cutoff).per_user_mc[0]
        flipped = report(~MASK6, lists, cutoff).per_user_mc[0]
        assert mc + flipped == pytest.approx(min(len(items), cutoff) / cutoff)


# -- ratio difference -------------------------------------------------------------

def test_ratio_difference_hand_cases():
    profile = [0, 1, 2, 3]  # share 2/4
    recs = [0, 2, 4, 5]     # share 2/4 at cutoff 4
    assert report(MASK6, [recs], 4, profile).per_user_mrd.tolist() == pytest.approx([0.0])
    # recommendation share uses min(len, cutoff) as denominator
    assert report(MASK6, [[0]], 10, profile).per_user_mrd.tolist() == pytest.approx([0.5])
    # empty recommendations count as zero share; an empty profile is undefined,
    # so its user is left out of the ratio difference but not of the count share
    ds = mask_dataset(MASK6, [profile, []])
    got = aggregate_report(ds, [rec_list(0, []), rec_list(1, recs)], 5)
    assert got.per_user_mrd.tolist() == pytest.approx([-0.5])
    assert got.per_user_mc.size == 2


# -- concentration spread ----------------------------------------------------------

def test_gini_spread_hand_case_exact():
    # two labeled items hit twice each, four neutral recommendations pooled
    mask = np.array([True, True, False, False, False, False])
    lists = [[0, 1, 2], [0, 1, 3], [4], [5]]
    assert report(mask, lists, 3).mg == 0.75


def test_gini_spread_extremes():
    mask = np.array([True, False, False])
    # all recommendation mass on the single labeled item: fully concentrated
    assert report(mask, [[0], [0]], 5, profile=(2,)).mg == pytest.approx(0.0)
    # even split between the labeled item and the pooled neutral slot
    mask2 = np.array([True, False])
    assert report(mask2, [[0, 1]], 5, profile=(1,)).mg == pytest.approx(1.0)


def test_gini_spread_permutation_invariant():
    mask = np.array([True, True, False, False])
    ds = mask_dataset(mask, [[3]] * 3)
    lists = [rec_list(0, [0, 2]), rec_list(1, [1, 3]), rec_list(2, [0])]
    a = aggregate_report(ds, lists, 5).mg
    b = aggregate_report(ds, list(reversed(lists)), 5).mg
    assert a == pytest.approx(b, abs=1e-15)


def test_gini_spread_undefined_cases():
    with pytest.raises(UndefinedMetricError, match="no labeled items in the catalog"):
        report(np.array([False, False]), [[0]], 5, profile=(1,))
    with pytest.raises(UndefinedMetricError, match="no recommendations to measure concentration on"):
        report(np.array([True, False]), [[]], 5, profile=(1,))


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

    ds = mask_dataset(mask, [profile] * n_lists)
    recs = [rec_list(u, items) for u, items in enumerate(lists)]
    if profile.size == 0:
        with pytest.raises(UndefinedMetricError, match="every evaluated user has an empty profile"):
            aggregate_report(ds, recs, cutoff)
        # one more user, with profile [0] and an empty list, keeps the report defined
        ds = mask_dataset(mask, [profile] * n_lists + [[0]])
        recs.append(rec_list(n_lists, []))
    if not any(len(items) for items in lists):
        with pytest.raises(UndefinedMetricError, match="no recommendations to measure concentration on"):
            aggregate_report(ds, recs, cutoff)
        return
    got = aggregate_report(ds, recs, cutoff)
    for n, items in enumerate(lists):
        assert got.per_user_mc[n] == pytest.approx(naive_mc(items, mask, cutoff), abs=1e-12)
    mrd_want = (
        [naive_mrd([0], [], mask, cutoff)]
        if profile.size == 0
        else [naive_mrd(profile, items, mask, cutoff) for items in lists]
    )
    assert got.per_user_mrd.tolist() == pytest.approx(mrd_want, abs=1e-12)
    assert got.mg == pytest.approx(naive_mg(lists, mask, cutoff), abs=1e-12)


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


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


def _same_outcome(ds, lists, cutoff):
    """aggregate_report and per_list_report give bitwise-equal reports, or the same error."""
    try:
        want = per_list_report(ds, lists, cutoff)
    except (UndefinedMetricError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            aggregate_report(ds, lists, cutoff)
        assert str(got.value) == str(exc)
        return False
    got = aggregate_report(ds, lists, cutoff)
    assert got.cutoff == want.cutoff
    assert _bits(got.per_user_mc) == _bits(want.per_user_mc)
    assert _bits(got.per_user_mrd) == _bits(want.per_user_mrd)
    assert _bits([got.mc, got.mrd, got.mg]) == _bits([want.mc, want.mrd, want.mg])
    return True


def test_aggregate_report_is_bitwise_per_list_report():
    """Empty lists, lists shorter than the cutoff, empty profiles and user subsets."""
    rng = np.random.default_rng(91)
    seen = dict(reported=0, empty_list=0, short_list=0, empty_profile=0, subset=0)
    for _ in range(300):
        ds = random_dataset(
            rng, n_users=int(rng.integers(1, 25)), n_items=int(rng.integers(2, 40)), p=float(rng.uniform(0.02, 0.4))
        )
        users = rng.permutation(ds.n_users)[: int(rng.integers(1, ds.n_users + 1))]
        lists = [
            rec_list(int(u), rng.permutation(ds.n_items)[: int(rng.integers(0, min(ds.n_items, 25) + 1))])
            for u in users
        ]
        for cutoff in (1, 3, 10, 20):
            if _same_outcome(ds, lists, cutoff):
                sizes = np.array([len(lst) for lst in lists])
                seen["reported"] += 1
                seen["empty_list"] += bool((sizes == 0).any())
                seen["short_list"] += bool(((sizes > 0) & (sizes < cutoff)).any())
                seen["empty_profile"] += bool((np.diff(ds.matrix.indptr)[users] == 0).any())
                seen["subset"] += users.size < ds.n_users
    assert min(seen.values()) > 50, seen


def test_aggregate_report_raises_the_first_undefined_condition():
    """When two undefined conditions hold at once, the same message as the per-list path."""
    no_labels = np.array([False, False, False])
    # no labeled items and every profile empty: the empty profiles are reported
    _same_outcome(mask_dataset(no_labels, [[], [0]]), [rec_list(0, [1])], 5)
    with pytest.raises(UndefinedMetricError, match="every evaluated user has an empty profile"):
        aggregate_report(mask_dataset(no_labels, [[], [0]]), [rec_list(0, [1])], 5)
    # every profile empty and every list empty
    _same_outcome(mask_dataset(MASK6, [[], [0]]), [rec_list(0, [])], 5)
    # no labeled items and every list empty: the catalog is reported
    _same_outcome(mask_dataset(no_labels, [[1]]), [rec_list(0, [])], 5)
    with pytest.raises(UndefinedMetricError, match="no labeled items in the catalog"):
        aggregate_report(mask_dataset(no_labels, [[1]]), [rec_list(0, [])], 5)
    # no lists, a bad cutoff, a user outside the dataset
    _same_outcome(mask_dataset(MASK6, [[0]]), [], 0)
    _same_outcome(mask_dataset(MASK6, [[0]]), [rec_list(0, [1])], 0)
    _same_outcome(mask_dataset(MASK6, [[0]]), [rec_list(0, [1]), rec_list(3, [2])], 5)
