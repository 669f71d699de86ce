"""Canonical dataset: users, items, binary interactions, misinformation labels.

External identifiers are opaque strings; dense indices are assigned by
lexicographic sort of the identifiers at construction time, so two loads of
the same files always agree. The interaction matrix is strictly binary and
immutable after construction.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Mapping

import numpy as np
from scipy import sparse

from .errors import DataError, EmptyDatasetError, ParseError

STATS_CSV_HEADER = "users,items,interactions,density_pct,misinfo_items"


class ItemLabel(Enum):
    """Editorial label on an item; anything not explicitly misinformative is neutral."""

    MISINFORMATIVE = "misinfo"
    NEUTRAL = "neutral"


def _canonical_matrix(n_users: int, n_items: int, rows, cols) -> sparse.csr_matrix:
    """Binary CSR with sorted indices; duplicate cells collapse to a single 1."""
    data = np.ones(len(rows), dtype=np.int8)
    mat = sparse.coo_matrix(
        (data, (rows, cols)), shape=(n_users, n_items), dtype=np.int8
    ).tocsr()
    mat.data[:] = 1  # duplicates were summed; clamp back to binary
    mat.sort_indices()
    return mat


@dataclass(eq=False)
class Dataset:
    """Immutable user-item interaction data with per-item misinformation flags."""

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    item_misinfo: np.ndarray  # bool, aligned with item_ids
    matrix: sparse.csr_matrix  # (n_users, n_items), values in {0, 1}

    _user_index: dict[str, int] = field(init=False, repr=False)
    _item_index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.item_misinfo = np.asarray(self.item_misinfo, dtype=bool)
        if self.matrix.shape != (len(self.user_ids), len(self.item_ids)):
            raise ValueError("interaction matrix shape does not match id lists")
        if len(self.item_misinfo) != len(self.item_ids):
            raise ValueError("label mask length does not match item list")
        self._user_index = {u: i for i, u in enumerate(self.user_ids)}
        self._item_index = {it: i for i, it in enumerate(self.item_ids)}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_profiles(
        cls,
        profiles: Mapping[str, Iterable[str]],
        misinfo_items: Iterable[str] = (),
        extra_items: Iterable[str] = (),
    ) -> "Dataset":
        """Build from {user_id: item_ids}. Items in `misinfo_items` are flagged;
        `extra_items` registers items with no interactions."""
        misinfo = set(misinfo_items)
        all_items = set(extra_items) | misinfo
        for items in profiles.values():
            all_items.update(items)
        user_ids = tuple(sorted(profiles))
        item_ids = tuple(sorted(all_items))
        item_index = {it: i for i, it in enumerate(item_ids)}
        rows: list[int] = []
        cols: list[int] = []
        for u, uid in enumerate(user_ids):
            for it in profiles[uid]:
                rows.append(u)
                cols.append(item_index[it])
        mask = np.array([it in misinfo for it in item_ids], dtype=bool)
        return cls(user_ids, item_ids, mask, _canonical_matrix(len(user_ids), len(item_ids), rows, cols))

    @classmethod
    def from_indices(
        cls,
        user_ids: tuple[str, ...],
        item_ids: tuple[str, ...],
        item_misinfo: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> "Dataset":
        """Build from pre-assigned dense indices (ids must already be sorted)."""
        if list(user_ids) != sorted(user_ids) or list(item_ids) != sorted(item_ids):
            raise ValueError("identifier lists must be lexicographically sorted")
        return cls(user_ids, item_ids, item_misinfo, _canonical_matrix(len(user_ids), len(item_ids), rows, cols))

    # -- basic accessors ----------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.user_ids)

    @property
    def n_items(self) -> int:
        return len(self.item_ids)

    @property
    def n_interactions(self) -> int:
        return int(self.matrix.nnz)

    def user_index(self, user_id: str) -> int:
        return self._user_index[user_id]

    def item_index(self, item_id: str) -> int:
        return self._item_index[item_id]

    def profile(self, u: int) -> np.ndarray:
        """Sorted item indices the user interacted with."""
        if not 0 <= u < self.n_users:
            raise ValueError(f"user index {u} out of range")
        return self.matrix.indices[self.matrix.indptr[u] : self.matrix.indptr[u + 1]]

    def label_of(self, i: int) -> ItemLabel:
        return ItemLabel.MISINFORMATIVE if self.item_misinfo[i] else ItemLabel.NEUTRAL

    def item_interaction_counts(self) -> np.ndarray:
        """Distinct-user interaction count per item (column sums)."""
        return np.asarray(self.matrix.sum(axis=0)).ravel().astype(np.int64)

    def with_added_interactions(self, rows: np.ndarray, cols: np.ndarray) -> "Dataset":
        """New dataset with extra (user, item) cells; users, items, labels unchanged."""
        coo = self.matrix.tocoo()
        all_rows = np.concatenate([coo.row, np.asarray(rows, dtype=coo.row.dtype)])
        all_cols = np.concatenate([coo.col, np.asarray(cols, dtype=coo.col.dtype)])
        return Dataset(
            self.user_ids,
            self.item_ids,
            self.item_misinfo.copy(),
            _canonical_matrix(self.n_users, self.n_items, all_rows, all_cols),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.user_ids == other.user_ids
            and self.item_ids == other.item_ids
            and np.array_equal(self.item_misinfo, other.item_misinfo)
            and self.matrix.shape == other.matrix.shape
            and np.array_equal(self.matrix.indptr, other.matrix.indptr)
            and np.array_equal(self.matrix.indices, other.matrix.indices)
        )


# -- ingestion ---------------------------------------------------------------

def _iter_lines(source, name: str) -> Iterator[tuple[int, str]]:
    if isinstance(source, (str, os.PathLike)):
        try:
            fh = open(source, "r", encoding="utf-8-sig")  # drops a leading byte-order mark
        except OSError as exc:
            raise DataError(f"cannot read {name} from {source}: {exc}") from exc
        with fh:
            for n, line in enumerate(fh, start=1):
                yield n, line.rstrip("\n").rstrip("\r")
    else:
        for n, line in enumerate(source, start=1):
            yield n, line.rstrip("\n").rstrip("\r")


def _split_record(line: str, n: int, name: str) -> tuple[str, str]:
    parts = line.split("\t")
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise ParseError(
            f"{name} line {n}: expected two non-empty tab-separated fields, got {line!r}"
        )
    return parts[0], parts[1]


def load_dataset(interactions_source, labels_source) -> Dataset:
    """Load from line-oriented sources: `user\\titem` pairs and `item\\tlabel` pairs.

    Sources may be paths, open files, or iterables of lines. Duplicate
    interaction lines collapse; items seen only in the labels file are
    registered with zero interactions; items without a label are neutral.
    """
    pairs: list[tuple[str, str]] = []
    for n, line in _iter_lines(interactions_source, "interactions"):
        pairs.append(_split_record(line, n, "interactions"))
    if not pairs:
        raise EmptyDatasetError("interactions source contains no records")

    label_tokens = {label.value for label in ItemLabel}
    labels: dict[str, str] = {}
    for n, line in _iter_lines(labels_source, "labels"):
        item_id, token = _split_record(line, n, "labels")
        if token not in label_tokens:
            raise ParseError(
                f"labels line {n}: unknown label {token!r} (expected misinfo|neutral)"
            )
        if labels.get(item_id, token) != token:
            raise ParseError(f"labels line {n}: conflicting label for item {item_id!r}")
        labels[item_id] = token

    user_ids = tuple(sorted({u for u, _ in pairs}))
    item_ids = tuple(sorted({i for _, i in pairs} | set(labels)))
    user_index = {u: idx for idx, u in enumerate(user_ids)}
    item_index = {i: idx for idx, i in enumerate(item_ids)}
    rows = np.array([user_index[u] for u, _ in pairs], dtype=np.int64)
    cols = np.array([item_index[i] for _, i in pairs], dtype=np.int64)
    mask = np.array(
        [labels.get(it) == ItemLabel.MISINFORMATIVE.value for it in item_ids], dtype=bool
    )
    return Dataset(user_ids, item_ids, mask, _canonical_matrix(len(user_ids), len(item_ids), rows, cols))


def save_dataset(ds: Dataset, interactions_path, labels_path) -> None:
    """Write the two dataset files; loading them back reproduces `ds` exactly
    (every item's label is written, so zero-interaction items survive)."""
    try:
        with open(interactions_path, "w", encoding="utf-8") as fh:
            for u, uid in enumerate(ds.user_ids):
                for i in ds.profile(u):
                    fh.write(f"{uid}\t{ds.item_ids[i]}\n")
        with open(labels_path, "w", encoding="utf-8") as fh:
            for i, iid in enumerate(ds.item_ids):
                fh.write(f"{iid}\t{ds.label_of(i).value}\n")
    except OSError as exc:
        raise DataError(f"cannot write dataset: {exc}") from exc


# -- statistics and validation ------------------------------------------------

@dataclass(frozen=True)
class DatasetStats:
    user_count: int
    item_count: int
    interaction_count: int
    density: float  # fraction of filled cells, 0 for an empty axis
    misinfo_item_count: int
    per_user_misinfo_ratio: tuple[float, ...]  # users with at least one interaction


@dataclass(frozen=True)
class ValidationReport:
    orphan_users: tuple[str, ...]  # users with zero interactions
    orphan_items: tuple[str, ...]  # items with zero interactions


def compute_stats(ds: Dataset) -> DatasetStats:
    cells = ds.n_users * ds.n_items
    density = ds.n_interactions / cells if cells else 0.0
    ratios = []
    for u in range(ds.n_users):
        prof = ds.profile(u)
        if len(prof):
            ratios.append(float(np.mean(ds.item_misinfo[prof])))
    return DatasetStats(
        user_count=ds.n_users,
        item_count=ds.n_items,
        interaction_count=ds.n_interactions,
        density=density,
        misinfo_item_count=int(ds.item_misinfo.sum()),
        per_user_misinfo_ratio=tuple(ratios),
    )


def validate_dataset(ds: Dataset) -> ValidationReport:
    user_counts = np.diff(ds.matrix.indptr)
    item_counts = ds.item_interaction_counts()
    return ValidationReport(
        orphan_users=tuple(ds.user_ids[u] for u in np.flatnonzero(user_counts == 0)),
        orphan_items=tuple(ds.item_ids[i] for i in np.flatnonzero(item_counts == 0)),
    )


def stats_csv(stats: DatasetStats) -> str:
    row = (
        f"{stats.user_count},{stats.item_count},{stats.interaction_count},"
        f"{100.0 * stats.density:.3f},{stats.misinfo_item_count}"
    )
    return f"{STATS_CSV_HEADER}\n{row}\n"
