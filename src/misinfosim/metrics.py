"""Misinformation exposure metrics over recommendation lists.

Three list-level measures at a cutoff N:

- count share: labeled items in the top N divided by N (the divisor stays
  N even when fewer than N items were returned);
- ratio difference: labeled share of the top min(len, N) recommended items
  minus the labeled share of the user's training profile (undefined for
  users with empty profiles, who are skipped by the aggregate);
- concentration spread: one minus the Gini index of how recommendations
  distribute over the labeled catalog, computed on a probability vector
  with one slot per labeled item plus a single pooled slot for all
  unlabeled recommendations. Higher means exposure is spread more evenly
  across distinct labeled items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import Dataset
from .errors import UndefinedMetricError
from .recommenders import RecommendationList

DEFAULT_CUTOFFS = (5, 10, 20)


@dataclass(frozen=True)
class MetricReport:
    cutoff: int
    mc: float
    mrd: float
    mg: float
    per_user_mc: np.ndarray  # one entry per evaluated list
    per_user_mrd: np.ndarray  # only users with non-empty profiles


def aggregate_report(ds: Dataset, lists: Sequence[RecommendationList], cutoff: int) -> MetricReport:
    """Mean metrics over the given users' lists at one cutoff.

    Every list counts toward the count share; the ratio difference averages
    only users whose training profile is non-empty. Raises when `lists` is
    empty or when the concentration metric is undefined.

    All lists are scored together: their top-`cutoff` items are concatenated
    and counted per list and per catalog slot, and the profile shares come
    from one pass over the interaction matrix.
    """
    if not lists:
        raise UndefinedMetricError("no recommendation lists to aggregate")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    n = len(lists)
    mask = ds.item_misinfo
    users = np.fromiter((lst.user for lst in lists), dtype=np.int64, count=n)
    outside = (users < 0) | (users >= ds.n_users)
    if outside.any():
        raise ValueError(f"user index {users[outside.argmax()]} out of range")
    tops = [np.asarray(lst.items, dtype=np.int64)[:cutoff] for lst in lists]
    lengths = np.fromiter((top.size for top in tops), dtype=np.int64, count=n)
    items = np.concatenate(tops)
    hits = np.bincount(np.repeat(np.arange(n), lengths)[mask[items]], minlength=n)
    per_mc = hits / cutoff  # the divisor stays N for short lists

    indptr = ds.matrix.indptr
    labeled_before = np.concatenate(([0], np.cumsum(mask[ds.matrix.indices])))
    profile_sizes = np.diff(indptr)[users]
    profile_labeled = np.diff(labeled_before[indptr])[users]
    defined = profile_sizes > 0
    if not defined.any():
        raise UndefinedMetricError("every evaluated user has an empty profile")
    rec_share = np.zeros(n)
    np.divide(hits, lengths, out=rec_share, where=lengths > 0)  # an empty list has share 0
    per_mrd = rec_share[defined] - profile_labeled[defined] / profile_sizes[defined]

    labeled = np.flatnonzero(mask)
    if labeled.size == 0:
        raise UndefinedMetricError("no labeled items in the catalog")
    slot_of = np.full(mask.size, labeled.size)  # unlabeled items share the last slot
    slot_of[labeled] = np.arange(labeled.size)
    counts = np.bincount(slot_of[items], minlength=labeled.size + 1).astype(np.float64)
    total = counts.sum()
    if total == 0:
        raise UndefinedMetricError("no recommendations to measure concentration on")
    p = np.sort(counts / total)
    m = p.size  # labeled catalog + pooled slot, so always >= 2
    ranks = np.arange(1, m + 1, dtype=np.float64)
    gini = float(np.sum((2.0 * ranks - m - 1.0) * p) / (m - 1))

    return MetricReport(
        cutoff=cutoff,
        mc=float(per_mc.mean()),
        mrd=float(per_mrd.mean()),
        mg=1.0 - gini,
        per_user_mc=per_mc,
        per_user_mrd=per_mrd,
    )
