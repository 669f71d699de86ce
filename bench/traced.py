"""One traced run: a misinfosim subcommand with every layer timed and counted.

    python3 bench/traced.py <result.json> <misinfosim CLI args...>

The run goes through `misinfosim.cli.main` like a timed run, with the
cells executed serially. Before it starts, this file wraps the calls into
each layer (the package's modules) from the outside: the public functions,
and where a layer is reached only through an internal helper, that helper.
Nothing in the package is edited. Each wrapper records a span; a layer's
self time is its span minus the spans of the layers it called. Property
checks run in the wrappers too, outside every span, so they are not timed.
The layer totals, the counts and any failed property go to `result.json`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np
from scipy import sparse

from child import checkout_cli

KINDS = ("MF", "UB", "IB", "Rnd", "Pop")
BRUTE_FORCE_USERS = 5  # UB lists per fit compared against the brute-force scorer


class Tracer:
    """Spans summed by name, with self time, and counters."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []  # per open span: start, child time, untimed time
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self.missing: list[str] = []

    @contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0, 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            self.stack.pop()
            duration = time.perf_counter() - frame[0] - frame[2]
            self.total[name] += duration
            self.self_time[name] += duration - frame[1]
            self.calls[name] += 1
            if self.stack:
                self.stack[-1][1] += duration

    @contextmanager
    def untimed(self):
        """Work of the benchmark itself: removed from every open span."""
        start = time.perf_counter()
        try:
            yield
        finally:
            spent = time.perf_counter() - start
            for frame in self.stack:
                frame[2] += spent

    def fail(self, message: str) -> None:
        if len(self.failures) < 20:
            self.failures.append(message)

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Replace owner.attr by a spanned call; `name` may be a function of the arguments."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            with self.span(name(*args) if callable(name) else name):
                result = original(*args, **kwargs)
            if after is not None:
                with self.untimed():
                    after(result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)


def fingerprint(ds) -> str:
    """Content hash of a dataset: shape, interactions and labels."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray(ds.matrix.shape, dtype=np.int64).tobytes())
    h.update(np.asarray(ds.matrix.indptr, dtype=np.int64).tobytes())
    h.update(np.asarray(ds.matrix.indices, dtype=np.int64).tobytes())
    h.update(np.asarray(ds.item_misinfo, dtype=bool).tobytes())
    return h.hexdigest()


def _profile(matrix, u: int) -> np.ndarray:
    return matrix.indices[matrix.indptr[u] : matrix.indptr[u + 1]]


# -- independent reference and property checks ---------------------------------

def _weight(c: int, na: float, nb: float, universe: float, kind: str) -> float:
    """The similarity formulas, evaluated in the same float operations as the definitions."""
    c = float(c)
    if kind == "jac":
        union = na + nb - c
        return c / union if union > 0 else 0.0
    if kind == "cos":
        return c / math.sqrt(na * nb) if na > 0 and nb > 0 else 0.0
    den_sq = na * (universe - na) * nb * (universe - nb)
    return (universe * c - na * nb) / math.sqrt(den_sq) if den_sq > 0 else 0.0


def brute_user_knn(matrix, u: int, k: int, kind: str, q: int, cutoff: int) -> tuple[list[int], list[float]]:
    """User-kNN top-N by direct set arithmetic over every other user."""
    n_users, n_items = matrix.shape
    profiles = [set(_profile(matrix, v).tolist()) for v in range(n_users)]
    mine = profiles[u]
    ranked = []
    for v in range(n_users):
        if v == u:
            continue
        c = len(mine & profiles[v])
        if c:
            w = _weight(c, float(len(mine)), float(len(profiles[v])), float(n_items), kind)
            if w > 0:
                ranked.append((-w, v, w))
    ranked.sort()
    scores: dict[int, float] = defaultdict(float)
    for _, v, w in sorted(ranked[:k], key=lambda t: t[1]):  # ascending neighbour index
        wq = w
        for _ in range(q - 1):
            wq *= w
        for i in sorted(profiles[v]):
            scores[i] += wq
    top = sorted((-s, i) for i, s in scores.items() if i not in mine and s > 0)[:cutoff]
    return [i for _, i in top], [-s for s, _ in top]


def list_faults(matrix, lists, cutoff: int) -> str | None:
    """The first UB/IB list contract a list breaks, if any."""
    if [lst.user for lst in lists] != list(range(matrix.shape[0])):
        return "one list per user, in user order"
    for lst in lists:
        items, scores = np.asarray(lst.items), np.asarray(lst.scores)
        if items.size > cutoff:
            return f"user {lst.user}: list longer than {cutoff}"
        if np.unique(items).size != items.size:
            return f"user {lst.user}: repeated item"
        if np.isin(items, _profile(matrix, lst.user)).any():
            return f"user {lst.user}: recommends a seen item"
        if not (scores > 0).all():
            return f"user {lst.user}: non-positive score"
        step = np.diff(scores)
        if (step > 0).any():
            return f"user {lst.user}: scores increase down the list"
        if (np.diff(items)[step == 0] <= 0).any():
            return f"user {lst.user}: tie not broken by ascending item index"
    return None


def trace_fault(trace) -> str | None:
    """ALS objective trace: finite, and non-increasing up to rounding."""
    values = np.asarray(trace, dtype=np.float64)
    if not np.isfinite(values).all():
        return "ALS objective trace is not finite"
    if (values[1:] > values[:-1] * (1 + 1e-9)).any():
        return f"ALS objective increased: {values.tolist()}"
    return None


def growth_faults(before, after, accepted, accept: int) -> str | None:
    """Feedback growth adds only accepted, unseen cells, at most `accept` per user."""
    if after.user_ids != before.user_ids or after.item_ids != before.item_ids:
        return "growth changed the users or items"
    added = after.n_interactions - before.n_interactions
    if not 0 <= added <= before.n_users * accept:
        return f"{added} interactions added, limit {before.n_users} x {accept}"
    old, new = before.matrix.astype(np.int8), after.matrix.astype(np.int8)
    if old.multiply(new).nnz != old.nnz:
        return "growth removed interactions"
    if accepted is not None:
        rows = [u for u, items in accepted.items() for _ in items]
        cols = [int(i) for items in accepted.values() for i in items]
        if any(len(items) > accept for items in accepted.values()):
            return f"a user accepted more than {accept} items"
        if len(cols) != added:
            return f"{len(cols)} items accepted but {added} interactions added"
        taken = sparse.csr_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=old.shape)
        union = (old + taken).astype(bool).astype(np.int8)
        if (new - union).count_nonzero():
            return "interactions after growth differ from those before plus those accepted"
    return None


# -- instrumentation ------------------------------------------------------------------------

def instrument(tracer: Tracer) -> dict:
    """Wrap every layer; returns the state the metrics are computed from."""
    from misinfosim import als, config, dataset, experiment, recommenders, simulate

    state = {
        "distinct_builds": set(),
        "cooc": {},
        "fit_keys": [],
        "last_build": None,
        "fitted": weakref.WeakKeyDictionary(),  # recommender -> (dataset, neighbourhood)
    }
    t = tracer

    def count_lines(result, interactions, labels):
        for path in (interactions, labels):
            with open(path, encoding="utf-8") as fh:
                t.counts["dataset.lines_parsed"] += sum(1 for _ in fh)

    def ratio_built(result, ds, ratio, seed):
        t.counts["profiles.users_in"] += ds.n_users
        t.counts["profiles.users_kept"] += result.n_users

    def neighbourhood_built(result, ds, axis, k, kind):
        fp = fingerprint(ds)
        state["distinct_builds"].add((fp, axis, k, kind))
        if (fp, axis) not in state["cooc"]:
            mat = ds.matrix if axis == "users" else ds.matrix.T.tocsr()
            mat = mat.astype(np.int64)
            state["cooc"][(fp, axis)] = (mat @ mat.T).nnz
        t.counts["similarity.cooc_pairs"] += state["cooc"][(fp, axis)]
        state["last_build"] = result

    def als_fitted(model, ds, cfg):
        fault = trace_fault(model.objective_trace)
        if fault:
            t.fail(fault)

    def half_sweep_done(result, mat, target, fixed, cfg):
        t.counts["als.rows_solved"] += mat.shape[0]

    def fit_started(rec, ds):
        state["last_build"] = None

    def fitted(result, rec, ds):
        state["fit_keys"].append((fingerprint(ds), rec.kind, rec.cfg.params_label()))
        state["fitted"][rec] = (ds, state["last_build"])

    def ranked(lists, rec, cutoff):
        ds, weights = state["fitted"][rec]
        matrix = ds.matrix
        t.counts["recommenders.lists"] += len(lists)
        if rec.kind in ("UB", "IB") and weights is not None:
            pattern = weights.astype(bool).astype(np.int64)
            binary = matrix.astype(np.int64)
            reached = pattern @ binary if rec.kind == "UB" else binary @ pattern.T
            t.counts["recommenders.items_ranked"] += reached.nnz - reached.multiply(binary).nnz
        else:  # every unseen item is ranked
            t.counts["recommenders.items_ranked"] += matrix.shape[0] * matrix.shape[1] - matrix.nnz
        if rec.kind in ("UB", "IB"):
            fault = list_faults(matrix, lists, cutoff)
            if fault:
                t.fail(f"{rec.kind}[{rec.cfg.params_label()}]: {fault}")
        if rec.kind == "UB":
            cfg = rec.cfg
            users = np.unique(np.linspace(0, matrix.shape[0] - 1, BRUTE_FORCE_USERS).astype(int))
            for u in users:
                items, scores = brute_user_knn(matrix, int(u), cfg.neighbors, cfg.similarity.value, cfg.exponent, cutoff)
                got = lists[int(u)]
                if got.items.tolist() != items or got.scores.tolist() != scores:
                    t.fail(f"UB[{cfg.params_label()}] user {u}: list differs from the brute-force scorer")

    def scored(report, ds, lists, cutoff):
        t.counts["metrics.lists_scored"] += len(lists)

    def grown(result, ds, rec_cfg, accept, seed):
        after, accepted = result if isinstance(result, tuple) else (result, None)
        t.counts["simulate.interactions_added"] += after.n_interactions - ds.n_interactions
        fault = growth_faults(ds, after, accepted, accept)
        if fault:
            t.fail(f"feedback growth: {fault}")

    t.wrap(config, "generate_synthetic", "synth.generate")
    t.wrap(config, "load_dataset", "dataset.load", after=count_lines)
    t.wrap(dataset.Dataset, "with_added_interactions", "dataset.grow")
    t.wrap(simulate, "compute_stats", "dataset.stats")
    t.wrap(experiment, "build_ratio_dataset", "profiles.ratio_build", after=ratio_built)
    t.wrap(recommenders, "neighborhood_matrix", "similarity.build", after=neighbourhood_built)
    t.wrap(recommenders, "fit_als", "als.fit", after=als_fitted)
    t.wrap(als, "_half_sweep", "als.half_sweep", after=half_sweep_done)
    t.wrap(als, "_objective_value", "als.objective")
    t.wrap(recommenders.Recommender, "fit", lambda rec, ds: f"recommenders.fit.{rec.kind}",
           before=fit_started, after=fitted)
    t.wrap(recommenders.Recommender, "recommend_all", lambda rec, cutoff: f"recommenders.recommend.{rec.kind}",
           after=ranked)
    t.wrap(experiment, "aggregate_report", "metrics.aggregate", after=scored)
    t.wrap(simulate, "aggregate_report", "metrics.aggregate", after=scored)
    t.wrap(experiment, "_run_cell", "experiment.cell")
    t.wrap(simulate, "run_cycle", "simulate.growth", after=grown)
    t.wrap(simulate, "_measure", "simulate.probe")
    return state


def layer_metrics(t: Tracer, state: dict, command: str) -> dict[str, float]:
    """Every per-layer metric except pool overhead, which needs the timed run."""
    half_sweep_s = t.total["als.half_sweep"]
    simulating = command == "simulate"
    metrics = {
        "synth.generate_s": t.total["synth.generate"],
        "dataset.load_s": t.total["dataset.load"],
        "dataset.lines_parsed": t.counts["dataset.lines_parsed"],
        "dataset.grow_s": t.total["dataset.grow"],
        "dataset.stats_s": t.total["dataset.stats"],
        "profiles.ratio_build_s": t.total["profiles.ratio_build"],
        "profiles.users_in": t.counts["profiles.users_in"],
        "profiles.users_kept": t.counts["profiles.users_kept"],
        "similarity.build_s": t.total["similarity.build"],
        "similarity.builds": t.calls["similarity.build"],
        "similarity.distinct_builds": len(state["distinct_builds"]),
        "similarity.cooc_pairs": t.counts["similarity.cooc_pairs"],
        "als.fit_s": t.total["als.fit"],
        "als.half_sweeps": t.calls["als.half_sweep"],
        "als.rows_solved_per_s": t.counts["als.rows_solved"] / half_sweep_s if half_sweep_s else 0.0,
        "als.objective_s": t.total["als.objective"],
    }
    for kind in KINDS:
        metrics[f"recommenders.fit_s.{kind}"] = t.self_time[f"recommenders.fit.{kind}"]
    for kind in KINDS:
        metrics[f"recommenders.recommend_s.{kind}"] = t.total[f"recommenders.recommend.{kind}"]
    metrics.update({
        "recommenders.lists": t.counts["recommenders.lists"],
        "recommenders.items_ranked": t.counts["recommenders.items_ranked"],
        "metrics.aggregate_s": t.total["metrics.aggregate"],
        "metrics.lists_scored": t.counts["metrics.lists_scored"],
        "experiment.cells": t.calls["experiment.cell"],
        "experiment.cell_busy_s": t.total["experiment.cell"],
        "simulate.growth_s": t.total["simulate.growth"],
        "simulate.probe_s": t.total["simulate.probe"],
        "simulate.fits": len(state["fit_keys"]) if simulating else 0,
        "simulate.distinct_fits": len(set(state["fit_keys"])) if simulating else 0,
        "simulate.interactions_added": t.counts["simulate.interactions_added"],
    })
    return metrics


def main() -> int:
    result_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    cli = checkout_cli()

    tracer = Tracer()
    state = instrument(tracer)
    code = cli.main(argv)
    if code != 0:
        return code
    result = {
        "metrics": layer_metrics(tracer, state, argv[0]),
        "failures": tracer.failures,
        "missing": tracer.missing,
    }
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
