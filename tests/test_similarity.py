import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misinfosim import ConfigError, SimilarityKind
from misinfosim.similarity import NeighborhoodPrefixes, neighborhood_matrix

from conftest import make_dataset, random_dataset
from oracles import similarity

KINDS = list(SimilarityKind)


def brute_top_k(ds, axis, anchor, k, kind):
    """Independent reference: python sets over all pairs, sort by (-sim, idx)."""
    if axis == "users":
        vectors = [set(ds.profile(u).tolist()) for u in range(ds.n_users)]
        universe = ds.n_items
    else:
        cols = ds.matrix.tocsc()
        vectors = [set(cols.indices[cols.indptr[i]:cols.indptr[i + 1]].tolist()) for i in range(ds.n_items)]
        universe = ds.n_users
    scored = []
    for other in range(len(vectors)):
        if other == anchor:
            continue
        s = similarity(vectors[anchor], vectors[other], kind, universe)
        if s > 0:
            scored.append((-s, other))
    scored.sort()
    top = scored[:k]
    return [o for _, o in top], [-s for s, _ in top]


# -- scalar hand values -------------------------------------------------------

def test_jaccard_hand_values():
    assert similarity({1, 2}, {1, 3}, SimilarityKind.JACCARD, 10) == pytest.approx(1 / 3)
    assert similarity({1, 2}, {1, 2}, SimilarityKind.JACCARD, 10) == 1.0
    assert similarity({1}, {2}, SimilarityKind.JACCARD, 10) == 0.0


def test_cosine_hand_values():
    assert similarity({1, 2}, {1, 3}, SimilarityKind.COSINE, 10) == pytest.approx(0.5)
    assert similarity({1, 2, 3}, {1}, SimilarityKind.COSINE, 10) == pytest.approx(1 / math.sqrt(3))


def test_binary_correlation_hand_values():
    # n=4, |A|=|B|=2, overlap 1: numerator 4*1 - 2*2 = 0
    assert similarity({1, 2}, {1, 3}, SimilarityKind.PEARSON, 4) == 0.0
    # identical non-degenerate vectors correlate perfectly
    assert similarity({1, 2}, {1, 2}, SimilarityKind.PEARSON, 10) == pytest.approx(1.0)
    # disjoint pairs can never be positive
    assert similarity({0, 1, 2}, {3, 4, 5}, SimilarityKind.PEARSON, 6) == pytest.approx(-1.0)


def test_degenerate_cases_score_zero():
    for kind in KINDS:
        assert similarity(set(), {1}, kind, 5) == 0.0
        assert similarity(set(), set(), kind, 5) == 0.0
    # constant-one vector has zero variance under the correlation
    assert similarity({0, 1, 2}, {0, 1}, SimilarityKind.PEARSON, 3) == 0.0


def test_similarity_validates_inputs():
    with pytest.raises(ValueError):
        similarity({1}, {2}, SimilarityKind.JACCARD, 0)
    with pytest.raises(ValueError):
        similarity({5}, {1}, SimilarityKind.JACCARD, 3)


def test_kind_parse():
    assert SimilarityKind.parse("jac") is SimilarityKind.JACCARD
    assert SimilarityKind.parse(" COS ") is SimilarityKind.COSINE
    assert SimilarityKind.parse("pearson") is SimilarityKind.PEARSON
    with pytest.raises(ConfigError):
        SimilarityKind.parse("dice")


@settings(max_examples=150, deadline=None)
@given(
    a=st.sets(st.integers(min_value=0, max_value=11), max_size=12),
    b=st.sets(st.integers(min_value=0, max_value=11), max_size=12),
    kind=st.sampled_from(KINDS),
)
def test_similarity_symmetric_and_bounded(a, b, kind):
    s_ab = similarity(a, b, kind, 12)
    s_ba = similarity(b, a, kind, 12)
    assert s_ab == s_ba
    if kind is SimilarityKind.PEARSON:
        assert -1.0 - 1e-12 <= s_ab <= 1.0 + 1e-12
    else:
        assert 0.0 <= s_ab <= 1.0 + 1e-12
    if not (a & b):
        assert s_ab <= 0.0  # empty intersections can never score positive


# -- neighborhoods ------------------------------------------------------------

def _row(mat, anchor):
    """Neighbors of one anchor, strongest first, ties by lower index."""
    lo, hi = mat.indptr[anchor], mat.indptr[anchor + 1]
    cols, weights = mat.indices[lo:hi], mat.data[lo:hi]
    order = np.lexsort((cols, -weights))
    return cols[order], weights[order]


def test_neighbors_exclude_self_and_nonpositive():
    ds = make_dataset(
        {"a": ["x", "y", "z"], "b": ["p", "q", "r"], "c": ["x", "y"]},
        misinfo=["x"],
    )
    indices, weights = _row(neighborhood_matrix(ds, "users", k=5, kind=SimilarityKind.PEARSON), 0)
    assert 0 not in indices
    # "b" is disjoint from "a": negative correlation, excluded even with room
    assert ds.user_index("b") not in indices
    assert (weights > 0).all()


def test_neighbor_ties_break_by_ascending_index():
    ds = make_dataset(
        {"u0": ["s", "a"], "u1": ["s", "b"], "u2": ["s", "c"], "u3": ["s", "d"]},
        misinfo=["s"],
    )
    indices, weights = _row(neighborhood_matrix(ds, "users", k=2, kind=SimilarityKind.JACCARD), 0)
    assert indices.tolist() == [1, 2]
    assert weights.tolist() == [pytest.approx(1 / 3)] * 2


def test_top_k_validates_arguments(tiny_ds):
    with pytest.raises(ValueError):
        neighborhood_matrix(tiny_ds, "users", 0, SimilarityKind.JACCARD)
    with pytest.raises(ValueError):
        neighborhood_matrix(tiny_ds, "rows", 2, SimilarityKind.JACCARD)


@pytest.mark.parametrize("axis", ["users", "items"])
@pytest.mark.parametrize("kind", KINDS)
def test_top_k_matches_brute_force(axis, kind):
    rng = np.random.default_rng(17)
    for trial in range(25):
        ds = random_dataset(rng, n_users=8, n_items=12, p=0.35)
        n = ds.n_users if axis == "users" else ds.n_items
        for k in (1, 3, 50):
            mat = neighborhood_matrix(ds, axis, k, kind)
            assert mat.shape == (n, n)
            assert mat.has_sorted_indices
            for anchor in range(n):
                indices, weights = _row(mat, anchor)
                want_idx, want_w = brute_top_k(ds, axis, anchor, k, kind)
                assert indices.tolist() == want_idx
                np.testing.assert_allclose(weights, want_w, rtol=0, atol=1e-12)


@pytest.mark.parametrize("axis", ["users", "items"])
@pytest.mark.parametrize("kind", KINDS)
def test_truncated_build_is_bitwise_the_direct_build(axis, kind):
    """Cutting a k=100 build to k gives neighborhood_matrix at k, bit for bit."""
    rng = np.random.default_rng(23)
    short_rows = straddling_ties = 0
    for _ in range(3):
        ds = random_dataset(rng, n_users=70, n_items=130, p=0.06)
        wide = neighborhood_matrix(ds, axis, 100, kind)
        prefixes = NeighborhoodPrefixes(wide, 100)
        for k in (1, 10, 50):
            direct = neighborhood_matrix(ds, axis, k, kind)
            cut = prefixes.truncated(k)
            assert cut.shape == direct.shape
            assert cut.has_sorted_indices
            np.testing.assert_array_equal(cut.indptr, direct.indptr)
            np.testing.assert_array_equal(cut.indices, direct.indices)
            np.testing.assert_array_equal(cut.data.view(np.uint64), direct.data.view(np.uint64))
            for anchor in range(wide.shape[0]):
                _, weights = _row(wide, anchor)
                short_rows += weights.size < k
                straddling_ties += weights.size > k and weights[k - 1] == weights[k]
    # the data must exercise both edges of the cut
    assert short_rows > 0
    assert straddling_ties > 0


def test_truncation_rejects_k_outside_the_build(tiny_ds):
    prefixes = NeighborhoodPrefixes(neighborhood_matrix(tiny_ds, "users", 2, SimilarityKind.JACCARD), 2)
    for k in (0, 3):
        with pytest.raises(ValueError):
            prefixes.truncated(k)
