import numpy as np
import pytest
from scipy import sparse

from misinfosim import ALSConfig, ConfigError, Dataset, EmptyDatasetError, NumericalError
from misinfosim import als
from misinfosim.als import fit_als, objective, solve_row

from conftest import block_dataset, make_dataset, random_dataset
from oracles import per_row_half_sweep


def naive_objective(ds, X, Y, reg, alpha):
    """Literal double loop over every user-item cell."""
    dense = ds.matrix.toarray().astype(float)
    total = 0.0
    for u in range(ds.n_users):
        for i in range(ds.n_items):
            p = dense[u, i]
            conf = 1.0 + alpha * p
            total += conf * (p - float(X[u] @ Y[i])) ** 2
    return total + reg * (float(np.sum(X * X)) + float(np.sum(Y * Y)))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("k", [3, 50])
def test_half_sweep_is_bitwise_the_per_row_solve(k):
    rng = np.random.default_rng(k)
    block = als._SOLVE_CELLS // (k * k)
    n_rows, n_fixed = 2 * block + 5, 40
    dense = rng.random((n_rows, n_fixed)) < 0.15
    # empty rows at the start, on and next to both block boundaries, and at the end
    dense[[0, block - 1, block, block + 1, 2 * block - 1, 2 * block, n_rows - 1]] = False
    mat = sparse.csr_matrix(dense.astype(np.int8))
    fixed = rng.random((n_fixed, k))
    cfg = ALSConfig(factors=k, regularization=0.1, iterations=1, alpha=40.0)
    got = np.full((n_rows, k), np.nan)
    want = np.full((n_rows, k), np.nan)
    als._half_sweep(mat, got, fixed, cfg)
    per_row_half_sweep(mat, want, fixed, cfg)
    assert same_bits(got, want)


def test_fit_is_bitwise_the_per_row_fit(monkeypatch):
    ds = random_dataset(np.random.default_rng(41), n_users=60, n_items=80, p=0.1)
    cfg = ALSConfig(factors=50, iterations=2, seed=3)
    blocked = fit_als(ds, cfg)
    monkeypatch.setattr(als, "_half_sweep", per_row_half_sweep)
    reference = fit_als(ds, cfg)
    assert same_bits(blocked.user_factors, reference.user_factors)
    assert same_bits(blocked.item_factors, reference.item_factors)
    assert same_bits(np.array(blocked.objective_trace), np.array(reference.objective_trace))


def test_half_sweep_singular_block_raises():
    mat = sparse.csr_matrix(np.array([[1, 0, 1], [0, 0, 0], [0, 1, 0], [1, 1, 1]], dtype=np.int8))
    cfg = ALSConfig(factors=2, regularization=0.0, iterations=1, alpha=0.0)
    with pytest.raises(NumericalError, match="singular"):
        als._half_sweep(mat, np.zeros((4, 2)), np.zeros((3, 2)), cfg)


def test_fit_names_the_half_sweep_of_a_singular_solve():
    ds = random_dataset(np.random.default_rng(43), n_users=8, n_items=10, p=0.3)
    # initial factors this small square to exactly zero, so every system is zero
    cfg = ALSConfig(factors=2, regularization=0.0, iterations=1, alpha=0.0, init_scale=1e-200)
    with pytest.raises(NumericalError, match=r"half-sweep 1 \(users\): singular"):
        fit_als(ds, cfg)


def test_solve_row_empty_row_is_zero_with_regularization():
    fixed = np.ones((5, 3))
    cfg = ALSConfig(factors=3, regularization=0.1, iterations=1)
    np.testing.assert_array_equal(solve_row(fixed, np.array([], dtype=int), cfg), np.zeros(3))


def test_solve_row_singular_system_raises():
    fixed = np.zeros((4, 2))
    cfg = ALSConfig(factors=2, regularization=0.0, iterations=1, alpha=0.0)
    with pytest.raises(NumericalError):
        solve_row(fixed, np.array([], dtype=int), cfg)


def test_solve_row_validates_indices():
    fixed = np.ones((4, 2))
    cfg = ALSConfig(factors=2, iterations=1)
    with pytest.raises(ValueError):
        solve_row(fixed, np.array([7]), cfg)


def test_objective_matches_naive_double_loop():
    rng = np.random.default_rng(11)
    for _ in range(20):
        ds = random_dataset(rng, n_users=6, n_items=9, p=0.3)
        cfg = ALSConfig(factors=3, regularization=0.07, iterations=1, alpha=13.0, seed=1)
        model = fit_als(ds, cfg)
        got = objective(ds, model, cfg)
        want = naive_objective(ds, model.user_factors, model.item_factors, cfg.regularization, cfg.alpha)
        assert got == pytest.approx(want, rel=1e-9)


def test_objective_of_zero_factors_counts_confidence_mass():
    ds = make_dataset({"a": ["x", "y"], "b": ["x"]})
    cfg = ALSConfig(factors=2, regularization=0.5, iterations=1, alpha=40.0)
    model = fit_als(ds, cfg)
    model.user_factors[:] = 0.0
    model.item_factors[:] = 0.0
    # every observed cell contributes (1 + alpha), all others 0
    assert objective(ds, model, cfg) == pytest.approx((1 + 40.0) * ds.n_interactions)


def test_objective_validates_shapes(tiny_ds):
    cfg = ALSConfig(factors=2, iterations=1)
    model = fit_als(tiny_ds, cfg)
    model.user_factors = model.user_factors[:-1]
    with pytest.raises(ValueError):
        objective(tiny_ds, model, cfg)


def test_trace_non_increasing_and_has_two_entries_per_iteration():
    rng = np.random.default_rng(29)
    ds = random_dataset(rng, n_users=20, n_items=30, p=0.2)
    cfg = ALSConfig(factors=5, regularization=0.1, iterations=7, alpha=40.0, seed=2)
    model = fit_als(ds, cfg)
    trace = model.objective_trace
    assert len(trace) == 2 * cfg.iterations
    for before, after in zip(trace, trace[1:]):
        assert after <= before * (1 + 1e-9)
    assert trace[-1] == pytest.approx(objective(ds, model, cfg), rel=1e-12)


def test_fit_is_deterministic():
    rng = np.random.default_rng(31)
    ds = random_dataset(rng, n_users=12, n_items=15, p=0.3)
    cfg = ALSConfig(factors=4, iterations=3, seed=9)
    a = fit_als(ds, cfg)
    b = fit_als(ds, cfg)
    np.testing.assert_array_equal(a.user_factors, b.user_factors)
    np.testing.assert_array_equal(a.item_factors, b.item_factors)
    assert a.objective_trace == b.objective_trace
    c = fit_als(ds, ALSConfig(factors=4, iterations=3, seed=10))
    assert not np.array_equal(a.user_factors, c.user_factors)


def test_identity_matrix_fit_is_tight():
    ds = make_dataset({f"u{k}": [f"i{k}"] for k in range(4)})
    cfg = ALSConfig(factors=4, regularization=0.01, iterations=60, alpha=40.0, seed=0)
    model = fit_als(ds, cfg)
    recon = model.user_factors @ model.item_factors.T
    assert np.abs(recon - np.eye(4)).max() <= 0.05


def test_rank3_block_recovery():
    ds = block_dataset()
    cfg = ALSConfig(factors=3, regularization=1e-6, iterations=60, alpha=0.0, seed=4)
    model = fit_als(ds, cfg)
    recon = model.user_factors @ model.item_factors.T
    assert np.abs(recon - ds.matrix.toarray()).max() < 1e-3


def test_fit_rejects_empty_dataset():
    ds = make_dataset({"u": ["a"]})
    empty = Dataset(
        ds.user_ids, ds.item_ids, ds.item_misinfo, sparse.csr_matrix((1, 1), dtype=np.int8)
    )
    with pytest.raises(EmptyDatasetError):
        fit_als(empty, ALSConfig(factors=2, iterations=1))


def test_config_validation():
    good = dict(factors=2, regularization=0.1, iterations=1, alpha=1.0, init_scale=0.1, seed=0)
    ALSConfig(**good)
    for bad in (
        dict(good, factors=0),
        dict(good, regularization=-0.1),
        dict(good, iterations=0),
        dict(good, alpha=-1.0),
        dict(good, init_scale=0.0),
        dict(good, seed=-1),
        *(dict(good, **{field: value}) for field in ("regularization", "alpha", "init_scale")
          for value in (float("nan"), float("inf"))),
    ):
        with pytest.raises(ConfigError):
            ALSConfig(**bad)
