"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: python sets, dict
accumulation, sorting by explicit keys. Neighbor accumulation walks
neighbors in ascending index order, the same canonical order the package
uses, so mathematically equal scores are also bitwise equal and rankings
admit no tolerance games. Neighborhoods are built once per dataset and
configuration, then reused for every user.
"""

import math

import numpy as np

from misinfosim import (
    DataError,
    Dataset,
    MisinfoSimError,
    SimilarityKind,
    UndefinedMetricError,
    aggregate_report,
    build_ratio_dataset,
    fit_recommender,
)
from misinfosim.experiment import ResultRow
from misinfosim.metrics import MetricReport
from misinfosim.profiles import resolve_profile_counts
from misinfosim.seeds import substream


def similarity(a, b, kind: SimilarityKind, universe_size: int) -> float:
    """Similarity between two sets of interaction indices.

    Degenerate 0/0 cases (either side empty, or constant vectors under the
    correlation) evaluate to 0.
    """
    set_a, set_b = set(map(int, a)), set(map(int, b))
    if universe_size < 1:
        raise ValueError("universe_size must be at least 1")
    if set_a | set_b:
        if max(set_a | set_b) >= universe_size or min(set_a | set_b) < 0:
            raise ValueError("index out of range of the universe")
    na, nb = len(set_a), len(set_b)
    c = len(set_a & set_b)
    if kind is SimilarityKind.JACCARD:
        union = na + nb - c
        return c / union if union else 0.0
    if kind is SimilarityKind.COSINE:
        return c / math.sqrt(na * nb) if na and nb else 0.0
    n = universe_size
    den_sq = na * (n - na) * nb * (n - nb)
    if den_sq == 0:
        return 0.0
    return (n * c - na * nb) / math.sqrt(den_sq)


def user_profiles(ds):
    return [set(ds.profile(u).tolist()) for u in range(ds.n_users)]


def item_audiences(ds):
    cols = ds.matrix.tocsc()
    return [set(cols.indices[cols.indptr[i]:cols.indptr[i + 1]].tolist()) for i in range(ds.n_items)]


def powq(w: float, q: int) -> float:
    """Left-associated repeated multiplication, matching the package exactly."""
    out = w
    for _ in range(q - 1):
        out *= w
    return out


def brute_neighbors(vectors, anchor, k, kind, universe):
    scored = []
    for other in range(len(vectors)):
        if other == anchor:
            continue
        s = similarity(vectors[anchor], vectors[other], kind, universe)
        if s > 0:
            scored.append((-s, other))
    scored.sort()
    return [(other, -neg) for neg, other in scored[:k]]


def _ranked(scores, cutoff):
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:cutoff]
    return [i for i, _ in ranked], [s for _, s in ranked]


def brute_user_based_all(ds, k, kind, q, cutoff):
    """Direct evaluation of the user-neighborhood scoring rule, one (items, scores) per user."""
    profiles = user_profiles(ds)
    out = []
    for user in range(ds.n_users):
        hood = brute_neighbors(profiles, user, k, kind, ds.n_items)
        hood.sort(key=lambda vw: vw[0])  # ascending neighbor index for accumulation
        scores = {}
        for v, w in hood:
            for i in profiles[v]:
                scores[i] = scores.get(i, 0.0) + powq(w, q)
        unseen = {i: s for i, s in scores.items() if s > 0 and i not in profiles[user]}
        out.append(_ranked(unseen, cutoff))
    return out


def brute_item_based_all(ds, k, kind, q, cutoff):
    """Direct evaluation of the item-neighborhood scoring rule, one (items, scores) per user."""
    audiences = item_audiences(ds)
    hoods = [sorted(brute_neighbors(audiences, i, k, kind, ds.n_users)) for i in range(ds.n_items)]
    out = []
    for profile in user_profiles(ds):
        scores = {}
        for i in range(ds.n_items):
            if i in profile:
                continue
            total = 0.0
            for j, w in hoods[i]:
                if j in profile:
                    total += powq(w, q)
            if total > 0:
                scores[i] = total
        out.append(_ranked(scores, cutoff))
    return out


def brute_user_based(ds, user, k, kind, q, cutoff):
    return brute_user_based_all(ds, k, kind, q, cutoff)[user]


def brute_item_based(ds, user, k, kind, q, cutoff):
    return brute_item_based_all(ds, k, kind, q, cutoff)[user]


def naive_mc(items, mask, cutoff):
    top = list(items)[:cutoff]
    return sum(1 for i in top if mask[i]) / cutoff


def naive_mrd(profile_items, rec_items, mask, cutoff):
    if len(profile_items) == 0:
        return None
    top = list(rec_items)[:cutoff]
    rec_share = (sum(1 for i in top if mask[i]) / len(top)) if top else 0.0
    prof_share = sum(1 for i in profile_items if mask[i]) / len(profile_items)
    return rec_share - prof_share


def naive_mg(lists, mask, cutoff):
    labeled = [i for i in range(len(mask)) if mask[i]]
    counts = {i: 0 for i in labeled}
    pooled = 0
    for items in lists:
        for i in list(items)[:cutoff]:
            if mask[i]:
                counts[i] += 1
            else:
                pooled += 1
    values = [counts[i] for i in labeled] + [pooled]
    total = sum(values)
    probs = sorted(v / total for v in values)
    n = len(probs)
    gini = sum((2 * (j + 1) - n - 1) * p for j, p in enumerate(probs)) / (n - 1)
    return 1.0 - gini


def misinformation_gini(lists, misinfo_mask, cutoff):
    """One minus the Gini index of recommendation mass over labeled items.

    Mass is counted per labeled catalog item, with every unlabeled
    recommendation pooled into one extra slot, so the vector has
    (labeled catalog size + 1) entries. Raises when the catalog has no
    labeled items or no recommendations were made at all.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    mask = np.asarray(misinfo_mask, dtype=bool)
    labeled = np.flatnonzero(mask)
    if labeled.size == 0:
        raise UndefinedMetricError("no labeled items in the catalog")
    slot_of = np.full(mask.size, -1, dtype=np.int64)
    slot_of[labeled] = np.arange(labeled.size)

    counts = np.zeros(labeled.size + 1, dtype=np.float64)
    for items in lists:
        top = np.asarray(items, dtype=np.int64)[:cutoff]
        if top.size == 0:
            continue
        hits = mask[top]
        np.add.at(counts, slot_of[top[hits]], 1.0)
        counts[-1] += float(np.count_nonzero(~hits))
    total = counts.sum()
    if total == 0:
        raise UndefinedMetricError("no recommendations to measure concentration on")

    p = np.sort(counts / total)
    n = p.size  # labeled catalog + pooled slot, so always >= 2
    ranks = np.arange(1, n + 1, dtype=np.float64)
    gini = float(np.sum((2.0 * ranks - n - 1.0) * p) / (n - 1))
    return 1.0 - gini


def per_list_report(ds, lists, cutoff):
    """Reference aggregate: each list scored on its own by naive_mc, naive_mrd
    and misinformation_gini, raising in the package's order."""
    if not lists:
        raise UndefinedMetricError("no recommendation lists to aggregate")
    if cutoff < 1:
        raise ValueError("cutoff must be at least 1")
    mask = ds.item_misinfo
    mc_values = []
    mrd_values = []
    for lst in lists:
        mc_values.append(naive_mc(lst.items, mask, cutoff))
        mrd = naive_mrd(ds.profile(lst.user), lst.items, mask, cutoff)
        if mrd is not None:
            mrd_values.append(mrd)
    if not mrd_values:
        raise UndefinedMetricError("every evaluated user has an empty profile")
    mg = misinformation_gini((lst.items for lst in lists), mask, cutoff)
    per_mc = np.asarray(mc_values, dtype=np.float64)
    per_mrd = np.asarray(mrd_values, dtype=np.float64)
    return MetricReport(
        cutoff=cutoff,
        mc=float(per_mc.mean()),
        mrd=float(per_mrd.mean()),
        mg=mg,
        per_user_mc=per_mc,
        per_user_mrd=per_mrd,
    )


def dense_solve_row(fixed, row_items, cfg):
    """Reference per-row solve with the full confidence diagonal."""
    n, k = fixed.shape
    p = np.zeros(n)
    p[row_items] = 1.0
    conf = np.diag(1.0 + cfg.alpha * p)
    A = fixed.T @ conf @ fixed + cfg.regularization * np.eye(k)
    b = fixed.T @ conf @ p
    return np.linalg.solve(A, b)


def per_row_half_sweep(mat, target, fixed, cfg):
    """Reference ALS half-sweep: one system build and np.linalg.solve per row."""
    gram = fixed.T @ fixed
    indptr, indices = mat.indptr, mat.indices
    k = fixed.shape[1]
    for row in range(mat.shape[0]):
        items = indices[indptr[row] : indptr[row + 1]]
        system = gram + cfg.regularization * np.eye(k)
        if len(items):
            observed = fixed[items]
            system = system + cfg.alpha * (observed.T @ observed)
            rhs = (1.0 + cfg.alpha) * observed.sum(axis=0)
        else:
            rhs = np.zeros(k)
        target[row] = np.linalg.solve(system, rhs)


def per_user_ratio_build(ds, ratio, seed):
    """Reference ratio rebuild: one sampled profile per user, then a dict remap
    of the surviving items."""
    survivors = []
    for u in range(ds.n_users):
        items = ds.profile(u)
        mask = ds.item_misinfo[items]
        misinfo, neutral = items[mask], items[~mask]
        counts = resolve_profile_counts(len(misinfo), len(neutral), ratio.value)
        if counts is None:
            continue
        rng = substream(seed, u)
        kept_mis = np.sort(rng.choice(misinfo, size=counts.misinfo, replace=False))
        kept_neu = np.sort(rng.choice(neutral, size=counts.neutral, replace=False))
        survivors.append((u, np.sort(np.concatenate([kept_mis, kept_neu]))))
    kept_items = np.unique(np.concatenate([items for _, items in survivors]))
    item_remap = {int(old): new for new, old in enumerate(kept_items)}
    rows, cols = [], []
    for new_u, (_, items) in enumerate(survivors):
        rows.append(np.full(len(items), new_u, dtype=np.int64))
        cols.append(np.array([item_remap[int(i)] for i in items], dtype=np.int64))
    return Dataset.from_indices(
        tuple(ds.user_ids[u] for u, _ in survivors),
        tuple(ds.item_ids[i] for i in kept_items),
        ds.item_misinfo[kept_items],
        np.concatenate(rows),
        np.concatenate(cols),
    )


def per_config_grid_rows(ds, cfg):
    """Reference grid run: one fit (and neighborhood build) per config, serially.

    Rows come in the canonical report order: ratio as configured, then
    recommender family, then parameter label, then cutoff; a ratio no user
    can satisfy, or a config that fails, gives one error row.
    """
    family = ["MF", "UB", "IB", "Rnd", "Pop", "error"]
    keyed = []
    for ridx, ratio in enumerate(cfg.ratios):
        label = ratio.label()
        try:
            ds_r = build_ratio_dataset(ds, ratio, cfg.master_seed)
        except DataError as exc:
            message = f"ratio {label} unattainable: {exc}"
            keyed.append(((ridx, 5, message, -1), ResultRow(label, "error", message, None, error=message)))
            continue
        for rc in cfg.recommenders:
            params = rc.params_label()
            try:
                lists = fit_recommender(ds_r, rc).recommend_all(max(cfg.cutoffs))
                reports = [aggregate_report(ds_r, lists, cutoff) for cutoff in cfg.cutoffs]
            except MisinfoSimError as exc:
                message = f"{rc.kind}[{params}]: {exc}"
                keyed.append(((ridx, 5, message, -1), ResultRow(label, "error", message, None, error=message)))
                continue
            for rep in reports:
                row = ResultRow(label, rc.kind, params, rep.cutoff, rep.mc, rep.mrd, rep.mg)
                keyed.append(((ridx, family.index(rc.kind), params, rep.cutoff), row))
    keyed.sort(key=lambda entry: entry[0])
    return [row for _, row in keyed]
