import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misinfosim import DataError, EmptyDatasetError, ParseError, load_dataset
from misinfosim.dataset import (
    STATS_CSV_HEADER,
    ItemLabel,
    compute_stats,
    save_dataset,
    stats_csv,
    validate_dataset,
)

from conftest import make_dataset


def test_from_profiles_builds_sorted_binary_matrix(tiny_ds):
    assert tiny_ds.user_ids == ("alice", "bob", "carol", "dave")
    assert tiny_ds.item_ids == ("m0", "m1", "n0", "n1", "n2", "n3")
    assert tiny_ds.matrix.dtype == np.int8
    assert tiny_ds.matrix.max() == 1
    assert tiny_ds.n_interactions == 12
    # profile indices come back sorted
    alice = tiny_ds.profile(0)
    assert list(alice) == sorted(alice)
    assert [tiny_ds.item_ids[i] for i in alice] == ["m0", "n0", "n1"]
    assert tiny_ds.label_of(0) is ItemLabel.MISINFORMATIVE
    assert tiny_ds.label_of(2) is ItemLabel.NEUTRAL


def test_duplicate_interactions_collapse():
    ds = load_dataset(
        ["u1\ti1", "u1\ti1", "u1\ti2", "u2\ti1"],
        ["i1\tmisinfo"],
    )
    assert ds.n_interactions == 3
    assert ds.matrix.max() == 1


def test_label_only_items_are_registered_without_interactions():
    ds = load_dataset(["u1\ti1"], ["i1\tneutral", "ghost\tmisinfo"])
    assert ds.item_ids == ("ghost", "i1")
    assert ds.item_interaction_counts().tolist() == [0, 1]
    assert ds.item_misinfo.tolist() == [True, False]
    report = validate_dataset(ds)
    assert report.orphan_items == ("ghost",)
    assert report.orphan_users == ()


def test_unlabeled_items_default_to_neutral():
    ds = load_dataset(["u1\ti1", "u1\ti2"], ["i1\tmisinfo"])
    assert ds.item_misinfo.tolist() == [True, False]


def test_parse_errors_name_the_line():
    with pytest.raises(ParseError, match="interactions line 2"):
        load_dataset(["u1\ti1", "brokenline"], ["i1\tneutral"])
    with pytest.raises(ParseError, match="labels line 1.*unknown label"):
        load_dataset(["u1\ti1"], ["i1\tfake"])
    with pytest.raises(ParseError, match="labels line 2.*conflicting"):
        load_dataset(["u1\ti1"], ["i1\tneutral", "i1\tmisinfo"])


def test_empty_interactions_raise():
    with pytest.raises(EmptyDatasetError):
        load_dataset([], ["i1\tneutral"])


def test_load_accepts_file_objects():
    ds = load_dataset(io.StringIO("u1\ti1\n"), io.StringIO("i1\tmisinfo\n"))
    assert ds.n_users == 1 and ds.n_items == 1


def test_load_drops_a_leading_byte_order_mark(tmp_path):
    ipath, lpath = tmp_path / "int.tsv", tmp_path / "lab.tsv"
    ipath.write_bytes("\ufeffu1\ti1\nu2\ti2\n".encode("utf-8"))
    lpath.write_bytes("\ufeffi1\tmisinfo\n".encode("utf-8"))
    ds = load_dataset(ipath, lpath)
    assert ds.user_ids == ("u1", "u2")
    assert ds.item_ids == ("i1", "i2")
    assert ds.item_misinfo.tolist() == [True, False]


def test_save_to_missing_directory_is_a_data_error(tmp_path, tiny_ds):
    with pytest.raises(DataError, match="cannot write"):
        save_dataset(tiny_ds, tmp_path / "no" / "int.tsv", tmp_path / "lab.tsv")


def test_round_trip_identity(tmp_path, tiny_ds):
    ipath, lpath = tmp_path / "int.tsv", tmp_path / "lab.tsv"
    save_dataset(tiny_ds, ipath, lpath)
    again = load_dataset(ipath, lpath)
    assert again == tiny_ds


def test_round_trip_preserves_zero_interaction_items(tmp_path):
    ds = make_dataset({"u": ["a"]}, misinfo=["ghost"], extra_items=["blank"])
    ipath, lpath = tmp_path / "int.tsv", tmp_path / "lab.tsv"
    save_dataset(ds, ipath, lpath)
    again = load_dataset(ipath, lpath)
    assert again == ds
    assert again.item_ids == ("a", "blank", "ghost")


def test_stats_on_tiny_dataset(tiny_ds):
    stats = compute_stats(tiny_ds)
    assert stats.user_count == 4
    assert stats.item_count == 6
    assert stats.interaction_count == 12
    assert stats.density == pytest.approx(12 / 24)
    assert stats.misinfo_item_count == 2
    assert stats.per_user_misinfo_ratio == pytest.approx((1 / 3, 2 / 3, 0.0, 1 / 4))


def test_stats_csv_format(tiny_ds):
    text = stats_csv(compute_stats(tiny_ds))
    header, row = text.strip().splitlines()
    assert header == STATS_CSV_HEADER == "users,items,interactions,density_pct,misinfo_items"
    assert row == "4,6,12,50.000,2"


def test_stats_skip_empty_profiles_in_misinfo_ratio():
    ds = make_dataset({"u": ["m"]}, misinfo=["m"], extra_items=["n"])
    grown = ds.with_added_interactions([], [])
    stats = compute_stats(grown)
    assert stats.per_user_misinfo_ratio == (1.0,)


def test_with_added_interactions_clamps_duplicates(tiny_ds):
    # re-adding an existing pair changes nothing
    grown = tiny_ds.with_added_interactions([0], [0])
    assert grown == tiny_ds
    # a genuinely new pair appears exactly once even if added twice
    grown = tiny_ds.with_added_interactions([2, 2], [0, 0])
    assert grown.n_interactions == tiny_ds.n_interactions + 1
    assert grown.item_misinfo.tolist() == tiny_ds.item_misinfo.tolist()
    assert grown.user_ids == tiny_ds.user_ids


def test_user_and_item_index_lookup(tiny_ds):
    assert tiny_ds.user_index("carol") == 2
    assert tiny_ds.item_index("n3") == 5
    with pytest.raises(KeyError):
        tiny_ds.user_index("nobody")


profiles_strategy = st.dictionaries(
    keys=st.text(alphabet="abcdefgh", min_size=1, max_size=4),
    values=st.sets(st.text(alphabet="xyz123", min_size=1, max_size=3), min_size=1, max_size=6),
    min_size=1,
    max_size=8,
)


@settings(max_examples=60, deadline=None)
@given(profiles=profiles_strategy, data=st.data())
def test_round_trip_property(tmp_path_factory, profiles, data):
    all_items = sorted({i for items in profiles.values() for i in items})
    misinfo = data.draw(st.sets(st.sampled_from(all_items)))
    ds = make_dataset(profiles, misinfo=misinfo)
    tmp = tmp_path_factory.mktemp("roundtrip")
    save_dataset(ds, tmp / "i.tsv", tmp / "l.tsv")
    assert load_dataset(tmp / "i.tsv", tmp / "l.tsv") == ds


def test_compute_stats_empty_axis_density():
    ds = make_dataset({"u": ["a"]})
    # density denominator guards against empty axes via construction;
    # an items-only dataset cannot exist, so check the 1x1 case instead
    assert compute_stats(ds).density == 1.0
