"""Top-N recommenders over binary interaction data.

Five families share one contract: rank unseen items per user, descending
score with ties broken by ascending item index, and return the top `cutoff`.

- Rnd: seeded uniform shuffle of the unseen items.
- Pop: global interaction counts, identical ordering for every user.
- UB:  s(u,i) = sum over the k nearest users v of w(u,v)^q * R[v,i].
- IB:  s(u,i) = sum over the k nearest items j of w(i,j)^q * R[u,j].
- MF:  dot products of implicit-feedback ALS factors.

`fit_recommender` is the one constructor, and `recommend_all` the one way to
get lists. Each family scores a block of users at once (`_score_block`); one
ranking step (`Recommender._rank`) turns every block into lists. It selects
each row's top `cutoff` exactly, without sorting the whole catalog: a
partition finds the cutoff-th key, and one stable sort orders the keys that
tie or beat it (`_top_order`). The neighborhood
models drop candidates whose score is not positive (no positive-similarity
neighbor reaches them); Rnd, Pop and MF rank every unseen item. Score
accumulation always walks neighbors in ascending index order so results do
not depend on sparse storage order. UB or IB configs that differ only in k
and q can share one neighborhood build (`shared_neighborhoods`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .als import ALSConfig, FactorModel, fit_als
from .dataset import Dataset
from .errors import ConfigError, EmptyDatasetError
from .seeds import substream
from .similarity import NeighborhoodPrefixes, SimilarityKind, neighborhood_matrix

RECOMMENDER_KINDS = ("Rnd", "Pop", "UB", "IB", "MF")
CELLS = 1 << 16  # score cells per block in recommend_all


@dataclass(frozen=True)
class RecommenderConfig:
    kind: str
    neighbors: int = 50
    similarity: SimilarityKind = SimilarityKind.PEARSON
    exponent: int = 1
    seed: int = 0
    als: Optional[ALSConfig] = None

    def __post_init__(self) -> None:
        if self.kind not in RECOMMENDER_KINDS:
            raise ConfigError(
                f"unknown recommender {self.kind!r}; expected one of: {', '.join(RECOMMENDER_KINDS)}"
            )
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.kind in ("UB", "IB"):
            if self.neighbors < 1:
                raise ConfigError("neighbors must be at least 1")
            if self.exponent < 1:
                raise ConfigError("similarity exponent must be at least 1")
        if self.kind == "MF" and self.als is None:
            raise ConfigError("MF configuration requires ALS settings")

    def params_label(self) -> str:
        """Stable human-readable parameter summary used in result rows."""
        if self.kind == "Rnd":
            return f"seed={self.seed}"
        if self.kind == "Pop":
            return "-"
        if self.kind in ("UB", "IB"):
            return f"k={self.neighbors};sim={self.similarity.value};q={self.exponent}"
        assert self.als is not None
        a = self.als
        return (
            f"factors={a.factors};lambda={_fmt_float(a.regularization)};iters={a.iterations};"
            f"alpha={_fmt_float(a.alpha)};scale={_fmt_float(a.init_scale)};seed={a.seed}"
        )

    def reseeded(self, seed: int) -> "RecommenderConfig":
        if self.kind == "MF":
            assert self.als is not None
            return replace(self, seed=seed, als=self.als.reseeded(seed))
        return replace(self, seed=seed)


def _fmt_float(x: float) -> str:
    return f"{x:g}"


def _integer_power(data: np.ndarray, q: int) -> np.ndarray:
    # left-associated repeated multiplication: exactly reproducible, unlike
    # libm pow which may differ across call paths by an ulp
    out = data.copy()
    for _ in range(q - 1):
        out *= data
    return out


def _top_order(keys: np.ndarray, cutoff: int) -> np.ndarray:
    """Each row's `cutoff` smallest keys as column indices, ties by ascending
    column: exactly `np.argsort(keys, axis=1, kind="stable")[:, :cutoff]`.

    A partition finds each row's cutoff-th smallest key; every key not above
    it is a candidate, so ties at that key all stay in. One stable lexsort by
    (row, key) orders the candidates, which `nonzero` lists by ascending
    column within a row, and the first `cutoff` of each row are the result.
    A cutoff past the row length keeps every key, as the argsort would.
    """
    n_rows, n = keys.shape
    cutoff = min(cutoff, n)
    kth = np.partition(keys, cutoff - 1, axis=1)[:, cutoff - 1 : cutoff]
    rows, cols = np.nonzero(~(keys > kth))  # `~(>)`, not `<=`: a NaN kth keeps the whole row
    ranked = np.lexsort((keys[rows, cols], rows))
    starts = np.zeros(n_rows, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows)[:-1], out=starts[1:])
    return cols[ranked[starts[:, np.newaxis] + np.arange(cutoff)]]


def parse_params_label(label: str) -> dict[str, str]:
    """Invert params_label into a key/value dict ('-' gives an empty dict)."""
    out: dict[str, str] = {}
    if label.strip() == "-":
        return out
    for part in label.split(";"):
        if "=" not in part:
            raise ValueError(f"malformed params field {label!r}")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


@dataclass(frozen=True)
class RecommendationList:
    user: int
    items: np.ndarray
    scores: np.ndarray
    cutoff: int

    def __len__(self) -> int:
        return int(self.items.size)


class Recommender:
    kind: str = "?"
    rank_zeros: bool = False  # whether unseen items scoring <= 0 are ranked

    def __init__(self, cfg: RecommenderConfig):
        if cfg.kind != self.kind:
            raise ConfigError(f"configuration kind {cfg.kind!r} does not match {self.kind!r}")
        self.cfg = cfg
        self.ds: Optional[Dataset] = None

    def fit(self, ds: Dataset) -> "Recommender":
        if ds.n_users == 0 or ds.n_items == 0 or ds.n_interactions == 0:
            raise EmptyDatasetError("cannot fit a recommender on an empty dataset")
        self.ds = ds
        self._fit(ds)
        return self

    def _fit(self, ds: Dataset) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _score_block(self, users: slice) -> np.ndarray:  # pragma: no cover - overridden
        """Dense float64 scores, one row of n_items per user in the slice."""
        raise NotImplementedError

    def recommend_all(self, cutoff: int) -> list[RecommendationList]:
        ds = self._fitted()
        if cutoff < 1:
            raise ValueError("cutoff must be at least 1")
        step = max(1, CELLS // ds.n_items)
        lists: list[RecommendationList] = []
        for start in range(0, ds.n_users, step):
            lists += self._rank(slice(start, min(start + step, ds.n_users)), cutoff)
        return lists

    def _rank(self, users: slice, cutoff: int) -> list[RecommendationList]:
        """Unseen items by descending score, ties by ascending item index."""
        ds = self._fitted()
        scores = self._score_block(users)
        keys = -scores
        seen = ds.matrix[users]
        keys[np.repeat(np.arange(seen.shape[0]), np.diff(seen.indptr)), seen.indices] = np.inf
        if not self.rank_zeros:
            keys[scores <= 0] = np.inf
        # the cutoff smallest keys of -score, equal keys in ascending item order,
        # selected without sorting the whole row
        order = _top_order(keys, cutoff)
        lengths = np.isfinite(np.take_along_axis(keys, order, axis=1)).sum(axis=1)
        lists = []
        for row, n in enumerate(lengths):
            top = order[row, :n]
            lists.append(RecommendationList(users.start + row, top, scores[row, top], cutoff))
        return lists

    def _fitted(self) -> Dataset:
        if self.ds is None:
            raise ValueError("recommender is not fitted")
        return self.ds


class RandomRecommender(Recommender):
    """Seeded uniform shuffle of each user's unseen items.

    Scores are (m - rank)/m over the m candidates so that prefixes agree
    across cutoffs; the stream is keyed by (seed, user), making results
    independent of recommendation order.
    """

    kind = "Rnd"

    def _fit(self, ds: Dataset) -> None:
        pass

    def _score_block(self, users: slice) -> np.ndarray:
        seen = self._fitted().matrix[users]
        unseen = np.ones(seen.shape, dtype=bool)
        unseen[np.repeat(np.arange(seen.shape[0]), np.diff(seen.indptr)), seen.indices] = False
        scores = np.zeros(seen.shape)  # zeros are exactly the seen items
        ranks = np.arange(seen.shape[1])
        for user, row_unseen, row_scores in zip(range(users.start, users.stop), unseen, scores):
            cand = np.flatnonzero(row_unseen)
            m = cand.size
            row_scores[cand[substream(self.cfg.seed, user).permutation(m)]] = (m - ranks[:m]) / m
        return scores


class PopularityRecommender(Recommender):
    """Ranks unseen items by their global interaction count."""

    kind = "Pop"
    rank_zeros = True

    def _fit(self, ds: Dataset) -> None:
        self._counts = ds.item_interaction_counts().astype(np.float64)

    def _score_block(self, users: slice) -> np.ndarray:
        return np.repeat(self._counts[np.newaxis, :], users.stop - users.start, axis=0)


class _NeighborhoodRecommender(Recommender):
    """The top-k similarity weights along `axis`, raised to the exponent q."""

    axis: str = "?"

    def __init__(self, cfg: RecommenderConfig, shared: Optional[NeighborhoodPrefixes] = None):
        """`shared`, if given, is a build on the dataset this recommender will be
        fitted to, for its similarity and at least its k (`shared_neighborhoods`)."""
        super().__init__(cfg)
        self.shared = shared

    def _neighborhood(self, ds: Dataset) -> sparse.csr_matrix:
        if self.shared is None:
            weights = neighborhood_matrix(ds, self.axis, self.cfg.neighbors, self.cfg.similarity)
        else:
            weights = self.shared.truncated(self.cfg.neighbors)
        weights.data = _integer_power(weights.data, self.cfg.exponent)
        return weights


class UserBasedRecommender(_NeighborhoodRecommender):
    """k-nearest-neighbor scoring over user similarities."""

    kind = "UB"
    axis = "users"

    def _fit(self, ds: Dataset) -> None:
        self._weights = self._neighborhood(ds)  # csr: row u -> neighbors v, ascending v

    def _score_block(self, users: slice) -> np.ndarray:
        # csr @ csr sums a cell in the left row's index order; sorted rows give ascending v
        return (self._weights[users] @ self._fitted().matrix).toarray()


class ItemBasedRecommender(_NeighborhoodRecommender):
    """k-nearest-neighbor scoring over item similarities."""

    kind = "IB"
    axis = "items"

    def _fit(self, ds: Dataset) -> None:
        self._by_member = self._neighborhood(ds).T.tocsr()  # row j -> anchors i scored via j

    def _score_block(self, users: slice) -> np.ndarray:
        # csr @ csr sums a cell in the left row's index order; sorted rows give ascending j
        return (self._fitted().matrix[users] @ self._by_member).toarray()


class FactorRecommender(Recommender):
    """Scores by dot products of ALS user and item factors."""

    kind = "MF"
    rank_zeros = True

    model: FactorModel

    def _fit(self, ds: Dataset) -> None:
        assert self.cfg.als is not None
        self.model = fit_als(ds, self.cfg.als)

    def _score_block(self, users: slice) -> np.ndarray:
        return self.model.user_factors[users] @ self.model.item_factors.T


_CLASSES = {
    "Rnd": RandomRecommender,
    "Pop": PopularityRecommender,
    "UB": UserBasedRecommender,
    "IB": ItemBasedRecommender,
    "MF": FactorRecommender,
}


def fit_recommender(
    ds: Dataset, cfg: RecommenderConfig, shared: Optional[NeighborhoodPrefixes] = None
) -> Recommender:
    """`cfg` fitted on `ds`; `shared` (UB and IB only) comes from `shared_neighborhoods`."""
    cls = _CLASSES[cfg.kind]
    return (cls(cfg) if shared is None else cls(cfg, shared)).fit(ds)


def shared_neighborhoods(ds: Dataset, cfgs: Sequence[RecommenderConfig]) -> NeighborhoodPrefixes:
    """One neighborhood build for UB or IB configs that differ only in k and q.

    The build is at the largest k; `fit_recommender(ds, cfg, shared)` fits
    each config from it exactly as from a build at its own k.
    """
    if len({(cfg.kind, cfg.similarity) for cfg in cfgs}) != 1 or cfgs[0].kind not in ("UB", "IB"):
        raise ValueError("a shared neighborhood serves UB or IB configs of one kind and similarity")
    k = max(cfg.neighbors for cfg in cfgs)
    axis = "users" if cfgs[0].kind == "UB" else "items"
    return NeighborhoodPrefixes(neighborhood_matrix(ds, axis, k, cfgs[0].similarity), k)
