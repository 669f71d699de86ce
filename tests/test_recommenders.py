import zlib

import numpy as np
import pytest

from misinfosim import ALSConfig, ConfigError, Dataset, RecommenderConfig, SimilarityKind, fit_recommender
from misinfosim import recommenders
from misinfosim.als import FactorModel
from misinfosim.recommenders import build_recommender

from conftest import make_dataset, random_dataset
from oracles import brute_item_based, brute_user_based


def knn_cfg(kind, k=2, sim=SimilarityKind.JACCARD, q=1):
    return RecommenderConfig(kind=kind, neighbors=k, similarity=sim, exponent=q)


@pytest.fixture
def toy_ds():
    # u0 overlaps u1/u2 via the shared item s; u3 is disjoint from u0
    return make_dataset(
        {
            "u0": ["s", "a"],
            "u1": ["s", "b"],
            "u2": ["s", "c"],
            "u3": ["x", "y"],
        },
        misinfo=["s"],
    )


# -- config -------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        RecommenderConfig(kind="SVD").validate()
    with pytest.raises(ConfigError):
        RecommenderConfig(kind="UB", neighbors=0).validate()
    with pytest.raises(ConfigError):
        RecommenderConfig(kind="IB", exponent=0).validate()
    with pytest.raises(ConfigError):
        RecommenderConfig(kind="MF").validate()  # no ALS settings
    with pytest.raises(ConfigError):
        RecommenderConfig(kind="Rnd", seed=-1).validate()
    RecommenderConfig(kind="MF", als=ALSConfig(factors=2, iterations=1)).validate()


def test_params_label_round_trips_through_config_from_row():
    """Every parameter of a configuration reads back from its report label."""
    configs = [
        (RecommenderConfig(kind="Rnd", seed=7), {"seed": "7"}),
        (RecommenderConfig(kind="Pop"), {}),
        (knn_cfg("UB", k=10, sim=SimilarityKind.PEARSON, q=3), {"k": "10", "sim": "pearson", "q": "3"}),
        (knn_cfg("IB", k=100, sim=SimilarityKind.COSINE, q=2), {"k": "100", "sim": "cos", "q": "2"}),
        (
            RecommenderConfig(
                kind="MF",
                seed=5,
                als=ALSConfig(factors=20, regularization=0.01, iterations=100, alpha=40.0, init_scale=0.1, seed=5),
            ),
            {"factors": "20", "lambda": "0.01", "iters": "100", "alpha": "40", "scale": "0.1", "seed": "5"},
        ),
    ]
    for cfg, want in configs:
        label = cfg.params_label()
        got = {} if label == "-" else dict(kv.split("=") for kv in label.split(";"))
        assert got == want


# -- shared ranking contract ---------------------------------------------------

@pytest.mark.parametrize(
    "cfg",
    [
        RecommenderConfig(kind="Rnd", seed=3),
        RecommenderConfig(kind="Pop"),
        knn_cfg("UB"),
        knn_cfg("IB"),
        RecommenderConfig(kind="MF", als=ALSConfig(factors=3, iterations=2, seed=1)),
    ],
    ids=lambda c: c.kind,
)
def test_never_recommends_seen_items_and_prefixes_agree(cfg):
    rng = np.random.default_rng(41)
    ds = random_dataset(rng, n_users=12, n_items=20, p=0.3)
    rec = fit_recommender(ds, cfg)
    for u in range(ds.n_users):
        seen = set(ds.profile(u).tolist())
        long = rec.recommend(u, 15)
        short = rec.recommend(u, 4)
        assert not (set(long.items.tolist()) & seen)
        assert len(set(long.items.tolist())) == len(long)
        assert long.items[: len(short)].tolist() == short.items.tolist()
        # descending scores, ties by ascending item index
        pairs = list(zip(long.scores, long.items))
        assert pairs == sorted(pairs, key=lambda sv: (-sv[0], sv[1]))


def circulant_dataset(n=20, width=3):
    """User u has seen items u .. u+width-1 (mod n), so every item has the same count."""
    rows = np.repeat(np.arange(n), width)
    cols = (rows + np.tile(np.arange(width), n)) % n
    ids = tuple(f"{i:03d}" for i in range(n))
    return Dataset.from_indices(ids, ids, np.arange(n) % 4 == 0, rows, cols)


MF_TINY = RecommenderConfig(kind="MF", als=ALSConfig(factors=3, iterations=2, seed=1))


@pytest.mark.parametrize(
    "cfg, ties",
    [
        pytest.param(RecommenderConfig(kind="Rnd", seed=3), False, id="Rnd"),
        pytest.param(RecommenderConfig(kind="Pop"), False, id="Pop"),
        pytest.param(knn_cfg("UB", k=4, sim=SimilarityKind.COSINE, q=2), False, id="UB"),
        pytest.param(knn_cfg("IB", k=4, sim=SimilarityKind.PEARSON, q=2), False, id="IB"),
        pytest.param(MF_TINY, False, id="MF"),
        # every score ties: equal popularity counts, and integer MF factors
        pytest.param(RecommenderConfig(kind="Pop"), True, id="Pop-ties"),
        pytest.param(MF_TINY, True, id="MF-ties"),
    ],
)
def test_recommend_all_independent_of_block_size(cfg, ties, monkeypatch):
    if ties:
        ds = circulant_dataset()
    else:
        ds = random_dataset(np.random.default_rng(43), n_users=13, n_items=20, p=0.3)
    rec = fit_recommender(ds, cfg)
    if ties and cfg.kind == "MF":  # scores in {0, 1, 2}
        rng = np.random.default_rng(44)
        rec.model = FactorModel(
            rng.integers(0, 2, (ds.n_users, 2)).astype(float), rng.integers(0, 2, (ds.n_items, 2)).astype(float), []
        )
    whole = rec.recommend_all(7)  # every user in one block
    monkeypatch.setattr(recommenders, "CELLS", 3 * ds.n_items)
    blocked = rec.recommend_all(7)  # blocks of 3 users, the last one short
    assert [lst.user for lst in blocked] == list(range(ds.n_users))
    straddling = 0
    for a, b, u in zip(whole, blocked, range(ds.n_users)):
        one = rec.recommend(u, 7)
        assert a.items.tolist() == b.items.tolist() == one.items.tolist()
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-12, atol=0)
        np.testing.assert_allclose(a.scores, one.scores, rtol=1e-12, atol=0)
        assert a.cutoff == b.cutoff == 7
        full = rec.recommend(u, ds.n_items)
        assert full.items[:7].tolist() == a.items.tolist()
        straddling += len(full) > 7 and full.scores[6] == full.scores[7]
    if ties:
        assert straddling >= ds.n_users // 2


def test_top_order_is_the_stable_argsort_prefix():
    """The selection equals a full stable argsort cut to the cutoff, ties and
    non-finite keys included."""
    rng = np.random.default_rng(zlib.crc32(b"top-order"))
    straddling = short_rows = 0
    for _ in range(400):
        n = int(rng.integers(1, 16))
        keys = rng.integers(-3, 3, (int(rng.integers(1, 7)), n)).astype(np.float64)
        keys[keys == 0] = rng.choice([0.0, -0.0], size=int((keys == 0).sum()))
        keys[rng.random(keys.shape) < rng.random()] = np.inf
        keys[0] = np.inf  # one row with no finite key
        if rng.random() < 0.1:
            keys[rng.random(keys.shape) < 0.2] = np.nan
        for cutoff in {1, max(n - 1, 1), n, n + 1, int(rng.integers(1, n + 2))}:
            want = np.argsort(keys, axis=1, kind="stable")[:, :cutoff]
            got = recommenders._top_order(keys.copy(), cutoff)
            assert got.tolist() == want.tolist(), (keys, cutoff)
            if cutoff < n:
                ranked = np.take_along_axis(keys, np.argsort(keys, axis=1, kind="stable"), axis=1)
                straddling += int((np.isfinite(ranked[:, cutoff]) & (ranked[:, cutoff - 1] == ranked[:, cutoff])).sum())
                short_rows += int((np.isfinite(keys).sum(axis=1) < cutoff).sum())
    assert straddling > 100 and short_rows > 100


def test_recommend_validates_arguments(toy_ds):
    rec = fit_recommender(toy_ds, knn_cfg("UB"))
    with pytest.raises(ValueError):
        rec.recommend(99, 5)
    with pytest.raises(ValueError):
        rec.recommend(0, 0)
    with pytest.raises(ValueError):
        build_recommender(knn_cfg("UB")).recommend(0, 5)


# -- random baseline ------------------------------------------------------------

def test_random_is_seed_and_user_keyed():
    rng = np.random.default_rng(5)
    ds = random_dataset(rng, n_users=8, n_items=30, p=0.2)
    a = fit_recommender(ds, RecommenderConfig(kind="Rnd", seed=1))
    b = fit_recommender(ds, RecommenderConfig(kind="Rnd", seed=1))
    c = fit_recommender(ds, RecommenderConfig(kind="Rnd", seed=2))
    for u in range(ds.n_users):
        assert a.recommend(u, 10).items.tolist() == b.recommend(u, 10).items.tolist()
    assert any(
        a.recommend(u, 10).items.tolist() != c.recommend(u, 10).items.tolist()
        for u in range(ds.n_users)
    )
    # order of calls does not matter: fresh instance, different query order
    d = fit_recommender(ds, RecommenderConfig(kind="Rnd", seed=1))
    assert d.recommend(3, 10).items.tolist() == a.recommend(3, 10).items.tolist()


def test_random_covers_whole_candidate_pool():
    ds = make_dataset({"u": ["a", "b"], "v": ["a"]}, misinfo=["a"])
    rec = fit_recommender(ds, RecommenderConfig(kind="Rnd", seed=0))
    lst = rec.recommend(0, 50)
    assert set(lst.items.tolist()) == set(range(ds.n_items)) - set(ds.profile(0).tolist())


# -- popularity ------------------------------------------------------------------

def test_popularity_orders_by_count_with_index_ties(toy_ds):
    rec = fit_recommender(toy_ds, RecommenderConfig(kind="Pop"))
    # u3 has seen x,y; remaining candidates: s(count 3), a,b,c (1 each)
    lst = rec.recommend(toy_ds.user_index("u3"), 10)
    names = [toy_ds.item_ids[i] for i in lst.items]
    assert names == ["s", "a", "b", "c"]
    assert lst.scores.tolist() == [3.0, 1.0, 1.0, 1.0]


def test_popularity_is_user_independent():
    ds = make_dataset({"u1": ["a"], "u2": ["a"], "u3": ["b", "c"]}, misinfo=["a"])
    rec = fit_recommender(ds, RecommenderConfig(kind="Pop"))
    l1 = rec.recommend(0, 10)
    l2 = rec.recommend(1, 10)
    assert l1.items.tolist() == l2.items.tolist()
    assert l1.scores.tolist() == l2.scores.tolist()


# -- neighborhood models -----------------------------------------------------------

def test_user_based_toy_scores(toy_ds):
    rec = fit_recommender(toy_ds, knn_cfg("UB", k=2, sim=SimilarityKind.JACCARD, q=1))
    lst = rec.recommend(0, 10)
    names = {toy_ds.item_ids[i]: s for i, s in zip(lst.items, lst.scores)}
    # neighbors of u0 are u1 and u2, each with jaccard 1/3
    assert names == {"b": pytest.approx(1 / 3), "c": pytest.approx(1 / 3)}
    # ties broke by index: b before c
    assert [toy_ds.item_ids[i] for i in lst.items] == ["b", "c"]
    full = rec.recommend_all(toy_ds.n_items)[0]
    assert full.items.tolist() == lst.items.tolist()
    assert full.scores.tolist() == lst.scores.tolist()
    # x is reached by no neighbor: zero score, never listed
    assert toy_ds.item_index("x") not in full.items.tolist()


def test_user_based_accumulates_over_neighbors():
    ds = make_dataset(
        {"u0": ["s", "t"], "u1": ["s", "t", "g"], "u2": ["s", "g"]},
        misinfo=["g"],
    )
    rec = fit_recommender(ds, knn_cfg("UB", k=2, sim=SimilarityKind.JACCARD, q=1))
    # g is reachable via u1 (jac 2/3) and u2 (jac 1/3): score 1.0
    lst = rec.recommend_all(ds.n_items)[0]
    assert lst.items.tolist() == [ds.item_index("g")]
    assert lst.scores.tolist() == [pytest.approx(1.0)]


def test_item_based_toy_scores(toy_ds):
    rec = fit_recommender(toy_ds, knn_cfg("IB", k=3, sim=SimilarityKind.COSINE, q=1))
    u0 = toy_ds.user_index("u0")
    lst = rec.recommend(u0, 10)
    # only neighbor of b (and of c) with positive similarity is s: cos 1/sqrt(3)
    got = {toy_ds.item_ids[i]: s for i, s in zip(lst.items, lst.scores)}
    assert set(got) == {"b", "c"}
    assert got["b"] == pytest.approx(1 / np.sqrt(3))
    assert got["c"] == pytest.approx(1 / np.sqrt(3))
    full = rec.recommend_all(toy_ds.n_items)[u0]
    assert dict(zip((toy_ds.item_ids[i] for i in full.items), full.scores)) == got


def test_knn_zero_score_users_get_empty_lists(toy_ds):
    rec = fit_recommender(toy_ds, knn_cfg("UB", k=3, sim=SimilarityKind.JACCARD))
    lst = rec.recommend(toy_ds.user_index("u3"), 5)  # disjoint from everyone
    assert len(lst) == 0
    assert lst.items.size == 0 and lst.scores.size == 0


def test_k1_rankings_invariant_to_exponent():
    rng = np.random.default_rng(51)
    for _ in range(5):
        ds = random_dataset(rng, n_users=10, n_items=16, p=0.3)
        for kind in ("UB", "IB"):
            lists = {
                q: fit_recommender(ds, knn_cfg(kind, k=1, q=q)).recommend_all(8) for q in (1, 3)
            }
            for l1, l3 in zip(lists[1], lists[3]):
                assert l1.items.tolist() == l3.items.tolist()


@pytest.mark.parametrize("kind", [SimilarityKind.JACCARD, SimilarityKind.COSINE, SimilarityKind.PEARSON])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_user_based_matches_brute_force(kind, q):
    rng = np.random.default_rng(zlib.crc32(f"UB/{kind.value}/{q}".encode()))
    for _ in range(6):
        ds = random_dataset(rng, n_users=10, n_items=15, p=0.3)
        rec = fit_recommender(ds, knn_cfg("UB", k=3, sim=kind, q=q))
        for u in range(ds.n_users):
            lst = rec.recommend(u, 6)
            want_items, want_scores = brute_user_based(ds, u, 3, kind, q, 6)
            assert lst.items.tolist() == want_items
            np.testing.assert_allclose(lst.scores, want_scores, rtol=0, atol=1e-10)


@pytest.mark.parametrize("kind", [SimilarityKind.JACCARD, SimilarityKind.COSINE, SimilarityKind.PEARSON])
@pytest.mark.parametrize("q", [1, 2, 3])
def test_item_based_matches_brute_force(kind, q):
    rng = np.random.default_rng(zlib.crc32(f"IB/{kind.value}/{q}".encode()))
    for _ in range(6):
        ds = random_dataset(rng, n_users=10, n_items=15, p=0.3)
        rec = fit_recommender(ds, knn_cfg("IB", k=3, sim=kind, q=q))
        for u in range(ds.n_users):
            lst = rec.recommend(u, 6)
            want_items, want_scores = brute_item_based(ds, u, 3, kind, q, 6)
            assert lst.items.tolist() == want_items
            np.testing.assert_allclose(lst.scores, want_scores, rtol=0, atol=1e-10)


# -- factorization ----------------------------------------------------------------

def test_mf_ranking_matches_predict_order(toy_ds):
    cfg = RecommenderConfig(kind="MF", als=ALSConfig(factors=3, iterations=4, seed=2))
    rec = fit_recommender(toy_ds, cfg)
    X, Y = rec.model.user_factors, rec.model.item_factors
    for lst in rec.recommend_all(toy_ds.n_items):
        u = lst.user
        # matrix product vs per-item dot product: same values up to blas
        # summation order
        assert np.allclose(
            lst.scores, [float(X[u] @ Y[int(i)]) for i in lst.items], rtol=1e-12, atol=1e-15
        )
        # MF keeps zero/negative scores: every unseen item is ranked
        assert len(lst) == toy_ds.n_items - toy_ds.profile(u).size


def test_mf_deterministic(toy_ds):
    cfg = RecommenderConfig(kind="MF", als=ALSConfig(factors=3, iterations=3, seed=6))
    a = fit_recommender(toy_ds, cfg)
    b = fit_recommender(toy_ds, cfg)
    for u in range(toy_ds.n_users):
        assert a.recommend(u, 5).items.tolist() == b.recommend(u, 5).items.tolist()
