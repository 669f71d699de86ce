"""Similarities between binary interaction vectors, and top-k neighborhoods.

All three measures depend only on the two set sizes, the intersection size,
and (for the correlation) the size of the interaction universe, so the
neighborhood build works off sparse intersection counts. Pairs with an empty
intersection can never score positive under any of the measures (for the
binary correlation the numerator is then -|A||B| <= 0), which is why the
sparse co-occurrence structure covers every candidate neighbor. A build at
one k also serves every smaller k exactly (`NeighborhoodPrefixes`).
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy import sparse

from .dataset import Dataset
from .errors import ConfigError


class SimilarityKind(Enum):
    JACCARD = "jac"
    COSINE = "cos"
    PEARSON = "pearson"

    @classmethod
    def parse(cls, token: str) -> "SimilarityKind":
        try:
            return cls(token.strip().lower())
        except ValueError:
            valid = ", ".join(kind.value for kind in cls)
            raise ConfigError(f"unknown similarity {token!r}; expected one of: {valid}") from None


def _axis_view(ds: Dataset, axis: str) -> tuple[sparse.csr_matrix, int]:
    if axis == "users":
        return ds.matrix.astype(np.int64), ds.n_items
    if axis == "items":
        return ds.matrix.T.tocsr().astype(np.int64), ds.n_users
    raise ValueError(f"axis must be 'users' or 'items', got {axis!r}")


def _weights_from_counts(
    counts: np.ndarray,
    size_anchor: int,
    sizes: np.ndarray,
    universe: int,
    kind: SimilarityKind,
) -> np.ndarray:
    c = counts.astype(np.float64)
    other = sizes.astype(np.float64)
    na = float(size_anchor)
    if kind is SimilarityKind.JACCARD:
        union = na + other - c
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(union > 0, c / union, 0.0)
        return w
    if kind is SimilarityKind.COSINE:
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where((na > 0) & (other > 0), c / np.sqrt(na * other), 0.0)
        return w
    n = float(universe)
    den_sq = na * (n - na) * other * (n - other)
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(den_sq > 0, (n * c - na * other) / np.sqrt(den_sq), 0.0)
    return w


def _rank_row(
    anchor: int, cols: np.ndarray, weights: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    keep = (weights > 0) & (cols != anchor)
    cols, weights = cols[keep], weights[keep]
    order = np.lexsort((cols, -weights))[:k]
    return cols[order], weights[order]


def neighborhood_matrix(ds: Dataset, axis: str, k: int, kind: SimilarityKind) -> sparse.csr_matrix:
    """All top-k neighborhoods along `axis` as a sparse weight matrix.

    Row a holds the weights of a's strict top-k positive-similarity
    neighbors: a itself and non-positive similarities are excluded, equal
    weights rank by ascending index, and fewer than k may remain. Column
    indices are sorted within each row.
    """
    mat, universe = _axis_view(ds, axis)
    if k < 1:
        raise ValueError("k must be at least 1")
    sizes = np.diff(mat.indptr)
    inter = (mat @ mat.T).tocsr()
    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for anchor in range(mat.shape[0]):
        lo, hi = inter.indptr[anchor], inter.indptr[anchor + 1]
        cand = inter.indices[lo:hi]
        counts = inter.data[lo:hi]
        weights = _weights_from_counts(counts, int(sizes[anchor]), sizes[cand], universe, kind)
        top_idx, top_w = _rank_row(anchor, cand, weights, k)
        rows.append(np.full(top_idx.size, anchor, dtype=np.int64))
        cols.append(top_idx)
        data.append(top_w)
    n = mat.shape[0]
    out = sparse.csr_matrix(
        (np.concatenate(data) if data else np.empty(0),
         (np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
          np.concatenate(cols) if cols else np.empty(0, dtype=np.int64))),
        shape=(n, n),
    )
    out.sort_indices()
    return out


class NeighborhoodPrefixes:
    """One `neighborhood_matrix` build at k, cut exactly to any smaller k.

    Each row of a build holds the first k entries of that row's (-weight,
    ascending index) order, and the weights do not depend on k, so the build
    at k' <= k is the first k' of those entries: the same columns and the
    same weights, bit for bit. Each entry's position in that order is
    computed once, so every cut is a mask.
    """

    def __init__(self, weights: sparse.csr_matrix, k: int):
        self.weights = weights
        self.k = k
        rows = np.repeat(np.arange(weights.shape[0]), np.diff(weights.indptr))
        order = np.lexsort((weights.indices, -weights.data, rows))
        self._rank = np.empty(weights.nnz, dtype=np.int64)
        self._rank[order] = np.arange(weights.nnz) - weights.indptr[rows[order]]

    def truncated(self, k: int) -> sparse.csr_matrix:
        """The weights `neighborhood_matrix` gives at k, as a new matrix."""
        if not 1 <= k <= self.k:
            raise ValueError(f"k must lie in [1, {self.k}], got {k}")
        w = self.weights
        keep = self._rank < k
        indptr = np.zeros_like(w.indptr)
        np.cumsum(np.minimum(np.diff(w.indptr), k), out=indptr[1:])
        return sparse.csr_matrix((w.data[keep], w.indices[keep], indptr), shape=w.shape)
