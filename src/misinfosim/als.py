"""Implicit-feedback matrix factorization trained by alternating least squares.

Minimizes

    sum_ui c_ui (p_ui - x_u . y_i)^2 + reg (sum ||x_u||^2 + sum ||y_i||^2)

over binary interactions p, with confidence c_ui = 1 + alpha * p_ui, by
alternating exact user-side and item-side solves. Each row solve uses the
normal equations with the Gram matrix of the fixed side cached once per
half-sweep and a rank-|row| correction for the observed entries. Rows are
solved in contiguous blocks, one batched LAPACK call per block.

The exact objective is evaluated after every half-sweep via the algebraic
split  sum_all (x.y)^2 + sum_obs [(1+alpha)(1 - x.y)^2 - (x.y)^2],  which
equals the naive double loop over all cells to machine precision but costs
O((U+I)k^2 + nnz k) instead of O(U I k).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

from .dataset import Dataset
from .errors import ConfigError, EmptyDatasetError, NumericalError
from .seeds import substream

_OBJ_CHUNK = 200_000  # observed cells per objective chunk
_SOLVE_CELLS = 1 << 16  # system cells (rows * k * k) per batched row solve


@dataclass(frozen=True)
class ALSConfig:
    factors: int
    regularization: float = 0.1
    iterations: int = 20
    alpha: float = 40.0
    init_scale: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        if self.factors <= 0:
            raise ConfigError(f"factors must be positive, got {self.factors}")
        if self.regularization < 0:
            raise ConfigError("regularization must be non-negative")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.alpha < 0:
            raise ConfigError("alpha must be non-negative")
        if self.init_scale <= 0:
            raise ConfigError("init_scale must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    def reseeded(self, seed: int) -> "ALSConfig":
        return replace(self, seed=seed)


@dataclass
class FactorModel:
    user_factors: np.ndarray  # (n_users, factors)
    item_factors: np.ndarray  # (n_items, factors)
    objective_trace: list[float]  # exact objective after each half-sweep


def _regularized_gram(fixed: np.ndarray, cfg: ALSConfig) -> np.ndarray:
    """F'F + reg I, the part of every row's system shared across a half-sweep."""
    return fixed.T @ fixed + cfg.regularization * np.eye(fixed.shape[1])


def _solve_rows(
    base: np.ndarray, fixed: np.ndarray, rows: list[np.ndarray], cfg: ALSConfig
) -> np.ndarray:
    """Exact solutions of (base + alpha F_r'F_r) x = (1 + alpha) F_r'1, one per row.

    `rows` holds each row's observed indices into `fixed`. All systems go to
    one batched solve, which runs the same LAPACK routine per matrix as a
    single solve, so every row's solution is bitwise that of a per-row solve.
    """
    systems = np.repeat(base[np.newaxis], len(rows), axis=0)
    rhs = np.zeros((len(rows), base.shape[0]))
    for slot, items in enumerate(rows):
        if len(items):
            observed = fixed[items]
            systems[slot] += cfg.alpha * (observed.T @ observed)
            rhs[slot] = (1.0 + cfg.alpha) * observed.sum(axis=0)
    try:
        return np.linalg.solve(systems, rhs[..., np.newaxis])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular normal equations: {exc}") from exc


def solve_row(
    fixed_factors: np.ndarray, interactions_of_row: np.ndarray, cfg: ALSConfig
) -> np.ndarray:
    """Solve one row's normal equations against the fixed factor side.

    `interactions_of_row` holds the indices of the row's observed entries
    (its sparse binary vector). `fit_als` does not call this; it is the
    public one-row reference that the tests check against a dense solve.
    """
    cfg.validate()
    fixed = np.asarray(fixed_factors, dtype=np.float64)
    idx = np.asarray(interactions_of_row, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= fixed.shape[0]):
        raise ValueError("row interaction index out of range of fixed factors")
    return _solve_rows(_regularized_gram(fixed, cfg), fixed, [idx], cfg)[0]


def _half_sweep(mat: sparse.csr_matrix, target: np.ndarray, fixed: np.ndarray, cfg: ALSConfig) -> None:
    base = _regularized_gram(fixed, cfg)
    indptr, indices = mat.indptr, mat.indices
    n_rows, k = mat.shape[0], fixed.shape[1]
    block = max(1, _SOLVE_CELLS // (k * k))
    for start in range(0, n_rows, block):
        stop = min(start + block, n_rows)
        rows = [indices[indptr[row] : indptr[row + 1]] for row in range(start, stop)]
        target[start:stop] = _solve_rows(base, fixed, rows, cfg)


def _objective_value(
    mat: sparse.csr_matrix, X: np.ndarray, Y: np.ndarray, reg: float, alpha: float
) -> float:
    # sum over all cells of (x.y)^2 via trace identity
    total_sq = float(np.sum((X.T @ X) * (Y.T @ Y)))
    coo = mat.tocoo()
    obs = 0.0
    for start in range(0, mat.nnz, _OBJ_CHUNK):
        rows = coo.row[start : start + _OBJ_CHUNK]
        cols = coo.col[start : start + _OBJ_CHUNK]
        pred = np.einsum("ij,ij->i", X[rows], Y[cols])
        obs += float(np.sum((1.0 + alpha) * (1.0 - pred) ** 2 - pred**2))
    reg_term = reg * (float(np.sum(X * X)) + float(np.sum(Y * Y)))
    return total_sq + obs + reg_term


def objective(ds: Dataset, model: FactorModel, cfg: ALSConfig) -> float:
    """Exact loss over all U*I cells plus regularization: the value `fit_als`
    traces, as a checked public reference for the tests."""
    X, Y = model.user_factors, model.item_factors
    if X.shape[0] != ds.n_users or Y.shape[0] != ds.n_items or X.shape[1] != Y.shape[1]:
        raise ValueError("factor shapes do not match the dataset")
    return _objective_value(ds.matrix, X, Y, cfg.regularization, cfg.alpha)


def fit_als(ds: Dataset, cfg: ALSConfig) -> FactorModel:
    """Run alternating exact solves for cfg.iterations full iterations.

    Factors are initialized uniformly in [0, init_scale) from cfg.seed, user
    side first. The objective after each half-sweep is appended to the trace
    and must stay finite.
    """
    cfg.validate()
    if ds.n_users == 0 or ds.n_items == 0 or ds.n_interactions == 0:
        raise EmptyDatasetError("cannot factorize an empty dataset")

    rng = substream(cfg.seed)
    X = rng.random((ds.n_users, cfg.factors)) * cfg.init_scale
    Y = rng.random((ds.n_items, cfg.factors)) * cfg.init_scale
    by_user = ds.matrix
    by_item = ds.matrix.T.tocsr()

    trace: list[float] = []

    def record(half: int, side: str) -> None:
        value = _objective_value(by_user, X, Y, cfg.regularization, cfg.alpha)
        if not np.isfinite(value):
            raise NumericalError(f"non-finite objective after half-sweep {half} ({side})")
        trace.append(value)

    for it in range(cfg.iterations):
        try:
            _half_sweep(by_user, X, Y, cfg)
        except NumericalError as exc:
            raise NumericalError(f"half-sweep {2 * it + 1} (users): {exc}") from exc
        record(2 * it + 1, "users")
        try:
            _half_sweep(by_item, Y, X, cfg)
        except NumericalError as exc:
            raise NumericalError(f"half-sweep {2 * it + 2} (items): {exc}") from exc
        record(2 * it + 2, "items")

    return FactorModel(user_factors=X, item_factors=Y, objective_trace=trace)

