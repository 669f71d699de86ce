"""End-to-end checks for the whole pipeline.

Each test prints one `criterion N: PASS/FAIL` line (visible even under
pytest's capture) and then asserts, so a failing criterion is both easy to
spot in the output and a hard test failure.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from misinfosim import (
    ALSConfig,
    Dataset,
    RecommenderConfig,
    SimConfig,
    SimilarityKind,
    SynthConfig,
    UndefinedMetricError,
    aggregate_report,
    fit_recommender,
    generate_synthetic,
    run_simulation,
)
from misinfosim.als import fit_als, solve_row
from misinfosim.cli import main
from misinfosim.dataset import compute_stats, save_dataset, stats_csv
from misinfosim.experiment import mf_grid, typical_grid
from misinfosim.profiles import resolve_profile_counts

from conftest import block_dataset, mask_dataset, random_dataset, rec_list
from oracles import (
    brute_item_based_all,
    brute_user_based_all,
    dense_solve_row,
    naive_mc,
    naive_mg,
    naive_mrd,
)


@contextmanager
def criterion(capsys, number, summary):
    """Print one pass/fail line per criterion, whatever happens inside."""
    state = {"detail": summary}
    try:
        yield state
    except BaseException:
        with capsys.disabled():
            print(f"criterion {number}: FAIL — {state['detail']}", flush=True)
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS — {state['detail']}", flush=True)


def _cyclic_dataset(n_users: int, n_items: int, n_interactions: int) -> Dataset:
    """A dataset with exact counts: pair j is (j mod users, j mod items).

    The two moduli are coprime for the sizes used here, so all pairs are
    distinct and the interaction count is exact.
    """
    users = tuple(f"u{j:05d}" for j in range(n_users))
    items = tuple(f"i{j:07d}" for j in range(n_items))
    j = np.arange(n_interactions, dtype=np.int64)
    return Dataset.from_indices(
        users, items, np.zeros(n_items, dtype=bool), j % n_users, j % n_items
    )


def test_criterion_1_density_reporting(capsys):
    with criterion(capsys, 1, "density arithmetic") as c:
        big = _cyclic_dataset(2921, 1_014_004, 1_116_658)
        small = _cyclic_dataset(2921, 5_761, 10_084)
        start = time.perf_counter()
        dens_big = 100.0 * compute_stats(big).density
        dens_small = 100.0 * compute_stats(small).density
        elapsed = time.perf_counter() - start
        c["detail"] = (
            f"densities {dens_big:.4f}% / {dens_small:.4f}% "
            f"(want 0.038 / 0.060 ±0.001), stats in {elapsed:.2f}s"
        )
        assert abs(dens_big - 0.038) <= 0.001
        assert abs(dens_small - 0.060) <= 0.001
        assert stats_csv(compute_stats(small)).splitlines()[1].split(",")[3] == "0.060"
        assert elapsed < 1.0


def _exhaustive_counts(mis_avail, neu_avail, frac):
    best = None
    for x in range(mis_avail + 1):
        for y in range(neu_avail + 1):
            if x + y == 0:
                continue
            if x * frac.denominator != (x + y) * frac.numerator:
                continue
            if best is None or x + y > best[0] + best[1]:
                best = (x, y)
    return best


def test_criterion_2_profile_count_resolution(capsys):
    with criterion(capsys, 2, "profile count resolution vs exhaustive search") as c:
        rng = np.random.default_rng(21)
        fracs = [Fraction(1, 5), Fraction(1, 2), Fraction(4, 5), Fraction(2, 7)]
        start = time.perf_counter()
        checked = 0
        for _ in range(1000):
            mis = int(rng.integers(0, 31))
            neu = int(rng.integers(0, 31))
            frac = fracs[int(rng.integers(len(fracs)))]
            got = resolve_profile_counts(mis, neu, frac)
            want = _exhaustive_counts(mis, neu, frac)
            if want is None:
                assert got is None, (mis, neu, frac, got)
            else:
                assert got is not None and (got.misinfo, got.neutral) == want, (mis, neu, frac)
            checked += 1
        elapsed = time.perf_counter() - start
        c["detail"] = f"{checked} cases match the exhaustive search in {elapsed:.2f}s"
        assert elapsed < 5.0


def test_criterion_3_neighborhood_recommenders_vs_brute_force(capsys):
    with criterion(capsys, 3, "UB/IB vs brute force") as c:
        rng = np.random.default_rng(33)
        grid = list(itertools.product((10, 50, 100), tuple(SimilarityKind), (1, 2, 3)))
        start = time.perf_counter()
        fit_s = recommend_s = 0.0
        compared = 0
        for _ in range(100):
            ds = random_dataset(rng, n_users=10, n_items=15, p=0.3)
            for k, kind, q in grid:
                for cfg_kind, brute in (("UB", brute_user_based_all), ("IB", brute_item_based_all)):
                    t0 = time.perf_counter()
                    rec = fit_recommender(
                        ds,
                        RecommenderConfig(kind=cfg_kind, neighbors=k, similarity=kind, exponent=q),
                    )
                    fit_s += time.perf_counter() - t0
                    want = brute(ds, k, kind, q, ds.n_items)
                    t0 = time.perf_counter()
                    lists = rec.recommend_all(ds.n_items)
                    recommend_s += time.perf_counter() - t0
                    assert len(lists) == ds.n_users
                    for u, got in enumerate(lists):
                        want_items, want_scores = want[u]
                        assert got.user == u
                        assert list(got.items) == want_items, (cfg_kind, k, kind, q, u)
                        np.testing.assert_allclose(got.scores, want_scores, atol=1e-10, rtol=0)
                        compared += 1
        elapsed = time.perf_counter() - start
        c["detail"] = (
            f"{compared} ranked lists identical (scores to 1e-10) in {elapsed:.1f}s"
            f" (package fit {fit_s:.1f}s, recommend {recommend_s:.1f}s)"
        )
        assert compared == 100 * len(grid) * 2 * 10
        assert elapsed < 30.0


def test_criterion_4_metrics_vs_naive(capsys):
    with criterion(capsys, 4, "exposure metrics vs naive recomputation") as c:
        mask_hand = np.array([True, True, False, False, False, False])
        lists_hand = [np.array([0, 1, 2]), np.array([0, 1, 3]), np.array([4]), np.array([5])]
        ds_hand = mask_dataset(mask_hand, [[5]] * len(lists_hand))
        recs_hand = [rec_list(u, items) for u, items in enumerate(lists_hand)]
        assert aggregate_report(ds_hand, recs_hand, 3).mg == 0.75

        rng = np.random.default_rng(44)
        checked = 0
        for _ in range(1000):
            n_items = int(rng.integers(2, 21))
            mask = rng.random(n_items) < 0.4
            if not mask.any():
                mask[int(rng.integers(n_items))] = True
            cutoff = int(rng.integers(1, 9))
            lists = []
            for _ in range(int(rng.integers(1, 6))):
                size = int(rng.integers(0, n_items + 1))
                lists.append(rng.permutation(n_items)[:size].astype(np.int64))
            if not any(len(l) for l in lists):
                lists[0] = np.array([0], dtype=np.int64)
            profile = np.flatnonzero(rng.random(n_items) < 0.3).astype(np.int64)

            ds = mask_dataset(mask, [profile] * len(lists))
            recs = [rec_list(u, items) for u, items in enumerate(lists)]
            if profile.size == 0:  # every user is excluded from the ratio difference
                with pytest.raises(UndefinedMetricError, match="every evaluated user has an empty profile"):
                    aggregate_report(ds, recs, cutoff)
                # one more user, with profile [0] and an empty list, keeps the report defined
                ds = mask_dataset(mask, [profile] * len(lists) + [[0]])
                recs.append(rec_list(len(lists), []))
            got = aggregate_report(ds, recs, cutoff)
            for n, items in enumerate(lists):
                assert got.per_user_mc[n] == pytest.approx(naive_mc(items, mask, cutoff), abs=1e-12)
            mrd_want = (
                [naive_mrd([0], [], mask, cutoff)]
                if profile.size == 0
                else [naive_mrd(profile, items, mask, cutoff) for items in lists]
            )
            assert got.per_user_mrd.tolist() == pytest.approx(mrd_want, abs=1e-12)
            assert got.mg == pytest.approx(naive_mg(lists, mask, cutoff), abs=1e-12)
            checked += 1
        c["detail"] = f"hand case exact; {checked} random cases match naive values to 1e-12"


def test_criterion_5_factorization_solver(capsys):
    with criterion(capsys, 5, "ALS objective, row solves, low-rank recovery") as c:
        # (a) the objective never increases across half-sweeps, on the full grid
        ds = generate_synthetic(
            SynthConfig(
                user_count=200,
                item_count=500,
                mean_profile_size=12.0,
                misinfo_item_fraction=0.1,
                popularity_exponent=1.0,
                misinfo_popularity_boost=5.0,
                seed=7,
            )
        )
        traces = 0
        fit_s = 0.0
        for rc in mf_grid(seed=5):
            t0 = time.perf_counter()
            model = fit_als(ds, rc.als)
            fit_s += time.perf_counter() - t0
            trace = model.objective_trace
            assert len(trace) == 2 * rc.als.iterations
            for prev, cur in zip(trace, trace[1:]):
                assert cur <= prev * (1 + 1e-9), rc.als
            traces += 1

        # (b) per-row solves match a dense reference solve
        rng = np.random.default_rng(3)
        row_cfg = ALSConfig(factors=4, regularization=0.05, iterations=1, alpha=17.0)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            fixed = rng.normal(size=(n, 4))
            row = np.flatnonzero(rng.random(n) < 0.4)
            np.testing.assert_allclose(
                solve_row(fixed, row, row_cfg), dense_solve_row(fixed, row, row_cfg), atol=1e-8, rtol=0
            )

        # (c) a noiseless rank-3 matrix is recovered
        blocks = block_dataset(groups=3, users_per=12, items_per=18)
        model = fit_als(
            blocks,
            ALSConfig(factors=3, regularization=1e-6, iterations=60, alpha=0.0, seed=1),
        )
        err = float(
            np.abs(model.user_factors @ model.item_factors.T - blocks.matrix.toarray()).max()
        )
        c["detail"] = (
            f"{traces} grid fits monotone (rel 1e-9, fit_als {fit_s:.1f}s); 100 row solves within 1e-8; "
            f"rank-3 recovery max error {err:.2e}"
        )
        assert err < 1e-3


def _typical_mc10(ds):
    out = {}
    for cfg in typical_grid(seed=0):
        rec = fit_recommender(ds, cfg)
        out[cfg.kind] = aggregate_report(ds, rec.recommend_all(10), 10).mc
    return out


def _unseen_base_rate(ds):
    total_mis = int(ds.item_misinfo.sum())
    rates = []
    for u in range(ds.n_users):
        prof = ds.profile(u)
        mis_seen = int(ds.item_misinfo[prof].sum())
        rates.append((total_mis - mis_seen) / (ds.n_items - len(prof)))
    return float(np.mean(rates))


def test_criterion_6_baseline_ordering_on_large_data(capsys, large_ratio_ds):
    with criterion(capsys, 6, "baseline behavior on the rebuilt large dataset") as c:
        start = time.perf_counter()
        mc = _typical_mc10(large_ratio_ds)
        base = _unseen_base_rate(large_ratio_ds)
        elapsed = time.perf_counter() - start
        others = {kind: value for kind, value in mc.items() if kind != "Pop"}
        c["detail"] = (
            "MC@10 " + " ".join(f"{k}={v:.3f}" for k, v in sorted(mc.items()))
            + f"; unseen base rate {base:.3f}; {elapsed:.0f}s"
        )
        for kind, value in others.items():
            assert mc["Pop"] >= value, f"Pop should dominate {kind}"
        assert abs(mc["Rnd"] - base) <= 0.05
        assert elapsed < 300.0


def test_criterion_7_neighborhood_size_and_exponent_trends(capsys, large_ratio_ds):
    with criterion(capsys, 7, "UB neighborhood-size and exponent trends") as c:
        start = time.perf_counter()
        mc = {}
        for label, k, q in (("k10", 10, 1), ("k100", 100, 1), ("q1", 50, 1), ("q3", 50, 3)):
            cfg = RecommenderConfig(
                kind="UB", neighbors=k, similarity=SimilarityKind.PEARSON, exponent=q, seed=0
            )
            rec = fit_recommender(large_ratio_ds, cfg)
            mc[label] = aggregate_report(large_ratio_ds, rec.recommend_all(10), 10).mc
        elapsed = time.perf_counter() - start
        c["detail"] = (
            f"MC@10 k=10:{mc['k10']:.3f} < k=100:{mc['k100']:.3f}; "
            f"q=3:{mc['q3']:.3f} <= q=1:{mc['q1']:.3f}; {elapsed:.0f}s"
        )
        assert mc["k10"] < mc["k100"]
        assert mc["q3"] <= mc["q1"]
        assert elapsed < 600.0


def test_criterion_8_feedback_loop_amplification(capsys, large_ratio_ds):
    # MF runs at its most-amplifying setting (few factors keep scores close
    # to raw popularity); UB runs at its standard setting.  MF growth is
    # compared against UB growth under the same accept-and-refit loop.
    with criterion(capsys, 8, "two-cycle feedback amplification") as c:
        start = time.perf_counter()
        mf = RecommenderConfig(
            kind="MF",
            seed=0,
            als=ALSConfig(factors=10, regularization=0.1, iterations=20, seed=0),
        )
        ub = RecommenderConfig(
            kind="UB", neighbors=50, similarity=SimilarityKind.PEARSON, exponent=1, seed=0
        )
        curves = {}
        for label, cfg in (("MF", mf), ("UB", ub)):
            reports = run_simulation(
                large_ratio_ds,
                SimConfig(
                    cycles=2,
                    schedule=(cfg, cfg),
                    probes=(cfg,),
                    accept_count=3,
                    cutoffs=(10,),
                    master_seed=0,
                ),
            )
            curves[label] = [r.metrics[0][1].mc for r in reports]
        elapsed = time.perf_counter() - start
        mf_curve, ub_curve = curves["MF"], curves["UB"]
        c["detail"] = (
            "MC@10 MF " + "->".join(f"{v:.3f}" for v in mf_curve)
            + ", UB " + "->".join(f"{v:.3f}" for v in ub_curve)
            + f"; {elapsed:.0f}s"
        )
        assert mf_curve[0] <= mf_curve[1] <= mf_curve[2]
        assert (mf_curve[2] - mf_curve[0]) > (ub_curve[2] - ub_curve[0])
        assert elapsed < 300.0


SWEEP_INI = """\
[dataset]
interactions = {inter}
labels = {labels}

[ratios]
ratios = none, 1/2

[metrics]
cutoffs = 5, 10

[grid.mf]
factors = 8
lambda = 0.1
iters = 3

[grid.ub]
k = 10, 20
sim = jac, pearson
q = 1, 2

[grid.ib]
k = 10, 20
sim = jac, pearson
q = 1, 2
"""


def test_criterion_9_sweep_reproducibility(capsys, tmp_path):
    with criterion(capsys, 9, "sweep reproducibility across reruns and workers") as c:
        ds = generate_synthetic(
            SynthConfig(
                user_count=60,
                item_count=120,
                mean_profile_size=8.0,
                misinfo_item_fraction=0.2,
                popularity_exponent=1.0,
                misinfo_popularity_boost=3.0,
                seed=9,
            )
        )
        inter, labels = tmp_path / "i.tsv", tmp_path / "l.tsv"
        save_dataset(ds, inter, labels)
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(SWEEP_INI.format(inter=inter, labels=labels))

        outputs = []
        for run, workers in enumerate(("1", "3", "1")):
            out = tmp_path / f"report{run}.csv"
            code = main(
                ["sweep", "--config", str(cfg), "--seed", "4", "--workers", workers, "--out", str(out)]
            )
            assert code == 0
            outputs.append(out.read_bytes())
        rows = outputs[0].decode().count("\n") - 1
        c["detail"] = f"{rows} rows byte-identical across workers 1/3/1"
        assert outputs[0] == outputs[1] == outputs[2]
        assert rows == 2 * (1 + 8 + 8 + 2) * 2
